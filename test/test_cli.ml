(* End-to-end tests of the tempagg command-line tool, driving the built
   binary as a user would. *)

let run = Cli_harness.run
let with_tempdir = Cli_harness.with_tempdir

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_contains output fragment =
  if not (contains output fragment) then
    Alcotest.fail (Printf.sprintf "output %S lacks %S" output fragment)

let test_query_employed () =
  let code, out = run [ "query"; "SELECT COUNT(Name) FROM Employed" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "| [18,20] |" |> ignore;
  check_contains out "3";
  check_contains out "[22,oo]"

let test_query_error_reported () =
  let code, out = run [ "query"; "SELECT COUNT(*) FROM Nowhere" ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  check_contains out "unknown relation"

let test_explain () =
  let code, out = run [ "explain"; "SELECT COUNT(*) FROM Employed" ] in
  Alcotest.(check int) "exit 0" 0 code;
  (* COUNT is invertible, so the optimizer picks the delta-sweep. *)
  check_contains out "sweep";
  (* MIN is not, so it falls back to the aggregation tree; --domains
     wraps the choice in the parallel divide-and-conquer. *)
  let code, out =
    run
      [ "explain"; "--domains"; "2"; "SELECT MIN(Salary) FROM Employed" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "parallel(2,aggregation-tree)"

let test_query_algorithm_override () =
  let code, out =
    run
      [
        "query"; "--algorithm"; "parallel(4,sweep)";
        "SELECT COUNT(Name) FROM Employed";
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "| [18,20] |";
  check_contains out "[22,oo]"

let test_generate_metrics_roundtrip () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let code, _ =
        run
          [ "generate"; "--tuples"; "200"; "--order"; "k-ordered"; "-k"; "7";
            "--seed"; "3"; "-o"; csv ]
      in
      Alcotest.(check int) "generate ok" 0 code;
      let code, out = run [ "metrics"; csv; "-k"; "7" ] in
      Alcotest.(check int) "metrics ok" 0 code;
      check_contains out "tuples:            200";
      check_contains out "k-orderedness:     7")

let test_convert_extsort_query_pipeline () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let heap = Filename.concat dir "rel.heap" in
      let sorted = Filename.concat dir "rel.sorted.heap" in
      let code, _ =
        run [ "generate"; "--tuples"; "300"; "--seed"; "4"; "-o"; csv ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, out = run [ "convert"; csv; heap ] in
      Alcotest.(check int) "convert" 0 code;
      check_contains out "wrote 300 tuples";
      let code, _ = run [ "extsort"; heap; sorted; "--memory-tuples"; "50" ] in
      Alcotest.(check int) "extsort" 0 code;
      let code, out = run [ "metrics"; sorted ] in
      Alcotest.(check int) "metrics" 0 code;
      check_contains out "time-ordered:      true";
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ sorted;
            "SELECT COUNT(*) FROM jobs DURING [0,100000]" ]
      in
      Alcotest.(check int) "query over heap" 0 code;
      check_contains out "count(*)")

let test_sort_csv () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let out_csv = Filename.concat dir "sorted.csv" in
      let code, _ =
        run [ "generate"; "--tuples"; "100"; "--seed"; "5"; "-o"; csv ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, _ = run [ "sort"; csv; "-o"; out_csv ] in
      Alcotest.(check int) "sort" 0 code;
      let code, out = run [ "metrics"; out_csv ] in
      Alcotest.(check int) "metrics" 0 code;
      check_contains out "k-orderedness:     0")

let test_bad_subcommand () =
  let code, _ = run [ "frobnicate" ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

let test_csv_error_carries_position () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "bad.csv" in
      Out_channel.with_open_text csv (fun oc ->
          output_string oc "name:string,start,stop\nalice,1,2\nbob,oops,9\n");
      let code, out = run [ "metrics"; csv ] in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      check_contains out "line 3 (row 2)")

(* Writes a relation whose physical order defeats ktree(1) so the
   recovery flags have something to recover from. *)
let unsorted_csv dir =
  let csv = Filename.concat dir "rel.csv" in
  let code, _ =
    run
      [ "generate"; "--tuples"; "300"; "--order"; "k-ordered"; "-k"; "40";
        "--seed"; "9"; "-o"; csv ]
  in
  Alcotest.(check int) "generate" 0 code;
  csv

let test_on_error_fallback_flag () =
  with_tempdir (fun dir ->
      let csv = unsorted_csv dir in
      let q = "SELECT COUNT(*) FROM jobs" in
      (* Without a policy the hinted algorithm fails loudly... *)
      let code, out =
        run [ "query"; "-r"; "jobs=" ^ csv; "--algorithm"; "ktree(1)"; q ]
      in
      Alcotest.(check bool) "hint fails" true (code <> 0);
      check_contains out "not k-ordered";
      (* ...and with --on-error fallback the query completes, reporting
         every degradation on stderr. *)
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ csv; "--algorithm"; "ktree(1)";
            "--on-error"; "fallback"; q ]
      in
      Alcotest.(check int) "fallback recovers" 0 code;
      check_contains out "degraded:";
      check_contains out "count(*)")

let test_deadline_flag () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let code, _ =
        run [ "generate"; "--tuples"; "20000"; "--seed"; "6"; "-o"; csv ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ csv; "--deadline-ms"; "0.001";
            "SELECT COUNT(*) FROM jobs" ]
      in
      Alcotest.(check bool) "deadline trips" true (code <> 0);
      check_contains out "deadline exceeded")

let test_inject_faults_flags () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let heap = Filename.concat dir "rel.heap" in
      let code, _ =
        run [ "generate"; "--tuples"; "300"; "--seed"; "8"; "-o"; csv ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, _ = run [ "convert"; csv; heap ] in
      Alcotest.(check int) "convert" 0 code;
      let q = "SELECT COUNT(*) FROM jobs" in
      (* Transient faults are retried away without any policy. *)
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ heap; "--inject-faults"; "transient=1.0";
            q ]
      in
      Alcotest.(check int) "transient recovered" 0 code;
      check_contains out "transient read fault";
      (* Persistent corruption fails the checksum... *)
      let code, out =
        run [ "query"; "-r"; "jobs=" ^ heap; "--inject-faults"; "torn=1.0"; q ]
      in
      Alcotest.(check bool) "corruption fatal by default" true (code <> 0);
      check_contains out "failed its checksum";
      (* ...unless the policy says to scan around it. *)
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ heap; "--inject-faults"; "torn=1.0";
            "--on-error"; "skip"; q ]
      in
      Alcotest.(check int) "skip scans around" 0 code;
      check_contains out "corrupt page";
      (* A malformed spec is rejected up front. *)
      let code, out =
        run [ "query"; "-r"; "jobs=" ^ heap; "--inject-faults"; "torn=9"; q ]
      in
      Alcotest.(check bool) "bad spec rejected" true (code <> 0);
      check_contains out "torn")

(* A script runs as one connection over the stdin transport. *)
let test_serve_script () =
  let code, out =
    Cli_harness.serve_stdin
      "-- live view over the paper's Employed relation\n\
       CREATE VIEW hc AS SELECT COUNT(Name) FROM Employed\n\
       SELECT * FROM hc DURING [8,20]\n\
       INSERT INTO Employed VALUES ('Zoe', 60000) DURING [12,18]\n\
       SELECT * FROM hc DURING [8,20]\n\
       DELETE FROM Employed WHERE Name = 'Zoe'\n\
       DROP VIEW hc\n"
  in
  Alcotest.(check int) "exit 0" 0 code;
  (* Every reply is printed: the view's rows before and after the
     write... *)
  check_contains out "|           2 | [8,12]  |";
  check_contains out "|           3 | [12,12] |";
  (* ...and the closing report aggregates latency per statement kind
     plus the live-subsystem counters. *)
  check_contains out "6 request(s)";
  check_contains out "create-view";
  check_contains out "p99-us";
  check_contains out "cache";
  match Cli_harness.kind_row out "select" with
  | Some (_ :: ops :: _) -> Alcotest.(check string) "select ops" "2" ops
  | _ -> Alcotest.fail ("no select row in " ^ out)

let test_serve_requires_listen () =
  let code, out = run [ "serve" ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  check_contains out "--listen"

(* A line that fails to parse is answered with ERR, and the script
   carries on with the next line. *)
let test_serve_parse_error () =
  let code, out =
    Cli_harness.serve_stdin "SELECT FROM ;\nSELECT COUNT(Name) FROM Employed\n"
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "ERR ";
  check_contains out "| [18,20] |";
  check_contains out "1 error(s)"

(* The observability flags on query: --profile prints the EXPLAIN
   ANALYZE report, --trace a Chrome trace file with one complete event
   per span. *)
let test_query_observability_flags () =
  with_tempdir (fun dir ->
      let trace = Filename.concat dir "trace.json" in
      let code, out =
        run
          [
            "query"; "--profile"; "--trace"; trace;
            "--algorithm"; "parallel(2,sweep)";
            "SELECT COUNT(Name) FROM Employed";
          ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      (* The result still prints first. *)
      check_contains out "| [18,20] |";
      check_contains out "query: SELECT COUNT(Name) FROM Employed";
      check_contains out "plan: parallel(2,sweep)";
      check_contains out "attempts:";
      check_contains out "memory: allocated_nodes=";
      check_contains out "io: pages_read=0";
      Alcotest.(check bool) "trace file written" true (Sys.file_exists trace);
      let json = In_channel.with_open_text trace In_channel.input_all in
      check_contains json "{\"traceEvents\":[";
      check_contains json "\"name\":\"shard\"";
      (* The profile carries everything --metrics printed; the flag is
         gone. *)
      let code, _ =
        run [ "query"; "--metrics"; "SELECT COUNT(Name) FROM Employed" ]
      in
      Alcotest.(check bool) "--metrics rejected" true (code <> 0))

(* --profile reports the page I/O of loading a heap-file relation. *)
let test_query_profile_io () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "r.csv" in
      let heap = Filename.concat dir "r.heap" in
      let code, _ = run [ "generate"; "--tuples"; "300"; "-o"; csv ] in
      Alcotest.(check int) "generate" 0 code;
      let code, _ = run [ "convert"; csv; heap ] in
      Alcotest.(check int) "convert" 0 code;
      let code, out =
        run [ "query"; "--profile"; "-r"; "R=" ^ heap; "SELECT COUNT(*) FROM R" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains out "io: pages_read=";
      Alcotest.(check bool) "pages were read" false
        (contains out "io: pages_read=0 "))

(* Without --data-dir, the first CREATE TABLE of a connection makes a
   temporary directory; closing the connection removes it. *)
let test_serve_removes_session_dir () =
  with_tempdir (fun tmp ->
      let code, out =
        Cli_harness.serve_stdin
          ~env:[ ("TMPDIR", tmp) ]
          "CREATE TABLE t (v INT) PARTITION BY RANGE (vt) (100)\n\
           INSERT INTO t VALUES (1) DURING [5,150]\n"
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains out "table t created";
      Alcotest.(check (list string)) "no session directory left" []
        (List.filter
           (fun f -> String.starts_with ~prefix:"tempagg-session" f)
           (Array.to_list (Sys.readdir tmp))))

(* client --trace-ids tags statements but never a control verb, so SLO
   and METRICS still reach the server's event loop. *)
let test_client_trace_ids_verbs () =
  with_tempdir (fun dir ->
      let log = Filename.concat dir "server.log" in
      let script = Filename.concat dir "ops.tsql" in
      Out_channel.with_open_text script (fun oc ->
          output_string oc "SLO\nMETRICS\nSELECT COUNT(Name) FROM Employed\n");
      let server =
        Unix.create_process "/bin/sh"
          [| "/bin/sh"; "-c";
             Printf.sprintf "exec %s serve --listen 0 --domains 1 >/dev/null 2>%s"
               (Filename.quote Cli_harness.cli) (Filename.quote log) |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      let rec port tries =
        let text =
          if Sys.file_exists log then
            In_channel.with_open_text log In_channel.input_all
          else ""
        in
        match Scanf.sscanf_opt text "tempagg: listening on port %d" Fun.id with
        | Some p -> p
        | None when tries > 0 -> Unix.sleepf 0.05; port (tries - 1)
        | None -> Alcotest.fail ("server did not start: " ^ text)
      in
      Fun.protect
        ~finally:(fun () ->
          Unix.kill server Sys.sigterm;
          ignore (Unix.waitpid [] server))
        (fun () ->
          let code, out =
            run
              [ "client"; "--connect"; string_of_int (port 200); "--trace-ids";
                "--strict"; "--script"; script ]
          in
          Alcotest.(check int) "exit 0" 0 code;
          check_contains out "client: 3 ok, 0 err, 0 busy"))

(* A METRICS line prints the exposition at that point of the script. *)
let test_serve_metrics_line () =
  let code, out =
    Cli_harness.serve_stdin
      "SELECT COUNT(Name) FROM Employed\n\
       EXPLAIN ANALYZE SELECT COUNT(Name) FROM Employed\n\
       METRICS\n\
       SELECT COUNT(Name) FROM Employed DURING [8,20]\n"
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "tempagg_net_latency_us_bucket{kind=\"explain-analyze\"";
  check_contains out "tempagg_live_cache_hits";
  check_contains out "3 request(s)"

(* A generated relation's physical order defeats ktree(1); the query's
   own ON ERROR FALLBACK must recover on every path, with no budget or
   override given. *)
let test_query_on_error_clause () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "r.csv" in
      let code, _ = run [ "generate"; "-n"; "2000"; "-o"; csv ] in
      Alcotest.(check int) "generate" 0 code;
      let q = "SELECT COUNT(*) FROM R USING ktree(1) ON ERROR FALLBACK" in
      let code, out = run [ "query"; "-r"; "R=" ^ csv; q ] in
      Alcotest.(check int) ("query recovers: " ^ out) 0 code;
      check_contains out "degraded:";
      let code, out =
        Cli_harness.serve_stdin ~args:[ "-r"; "R=" ^ csv ] (q ^ "\n")
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains out "OK ";
      check_contains out " degraded";
      check_contains out "0 error(s)")

(* A --data-dir that does not exist yet is created with its parents;
   each connection's tables go under DIR/conn-N/NAME.  A directory that
   cannot be made is a clean per-statement error. *)
let test_serve_data_dir () =
  with_tempdir (fun dir ->
      let data = Filename.concat dir (Filename.concat "a" "b") in
      let code, out =
        Cli_harness.serve_stdin ~args:[ "--data-dir"; data ]
          "CREATE TABLE t (v INT) PARTITION BY RANGE (vt) (100)\n\
           INSERT INTO t VALUES (1) DURING [5,150]\n\
           SELECT COUNT(*) FROM t\n"
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains out "table t created: 2 shard(s)";
      check_contains out "0 error(s)";
      Alcotest.(check bool) "DIR/conn-0/t" true
        (Sys.is_directory
           (Filename.concat data (Filename.concat "conn-0" "t")));
      let file = Filename.concat dir "plain-file" in
      Out_channel.with_open_text file (fun oc -> output_string oc "x");
      let code, out =
        Cli_harness.serve_stdin ~args:[ "--data-dir"; file ]
          "CREATE TABLE t (v INT) PARTITION BY RANGE (vt) (100)\n"
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains out "ERR CREATE TABLE failed:";
      if contains out "internal error" then
        Alcotest.fail ("unclean error: " ^ out))

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "cli"
    [
      ( "tempagg",
        [
          quick "query Employed (Table 1)" test_query_employed;
          quick "query error reported" test_query_error_reported;
          quick "explain" test_explain;
          quick "query --algorithm override" test_query_algorithm_override;
          quick "generate + metrics" test_generate_metrics_roundtrip;
          quick "convert + extsort + query pipeline"
            test_convert_extsort_query_pipeline;
          quick "sort csv" test_sort_csv;
          quick "bad subcommand" test_bad_subcommand;
          quick "csv error carries line/row" test_csv_error_carries_position;
          quick "--on-error fallback" test_on_error_fallback_flag;
          quick "--deadline-ms" test_deadline_flag;
          quick "--inject-faults" test_inject_faults_flags;
          quick "serve script" test_serve_script;
          quick "serve without --listen" test_serve_requires_listen;
          quick "serve parse error" test_serve_parse_error;
          quick "query --profile/--trace" test_query_observability_flags;
          quick "query --profile reports heap I/O" test_query_profile_io;
          quick "serve removes its session temp dir"
            test_serve_removes_session_dir;
          quick "serve METRICS line" test_serve_metrics_line;
          quick "client --trace-ids leaves verbs untagged"
            test_client_trace_ids_verbs;
          quick "query and serve honour ON ERROR" test_query_on_error_clause;
          quick "serve --data-dir created" test_serve_data_dir;
        ] );
    ]
