(* The benchmark's own test: every workload at a tiny size passes the
   correctness gate, plain and traced (a traced run also checks that the
   ledger's engine probe answers as Eval.run does), and a plain run's
   end-to-end metrics are all above 0; a tampered reply (one
   aggregate value, one valid interval) is caught; BUSY and ERR replies
   count as failures. *)

open Perfbench

let cli = Filename.concat (Sys.getcwd ()) "../bin/tempagg_cli.exe"
let work_dir = "gate-test-run"

let config ?tamper ?(trace = false) workload =
  {
    Runner.workload;
    seed = 3;
    seconds = 0.5;
    trace;
    cli;
    scale = Workloads.Tiny;
    work_dir;
    out_dir = work_dir;
    tamper;
  }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

(* Rewrite one row of one reply: the first row [edit] changes, in the
   first timed reply from the k-th on that has such a row. *)
let tamper_row ~k edit : Loop.tamper =
  let edited = ref false in
  fun i payload ->
    if i < k || !edited then payload
    else
    List.map
      (fun line ->
        if !edited || String.length line = 0 || line.[0] <> '|' then line
        else
          match String.split_on_char '|' line with
          | "" :: cells -> (
              match edit (List.map String.trim cells) with
              | Some cells' ->
                  edited := true;
                  "| " ^ String.concat " | " (List.filter (( <> ) "") cells') ^ " |"
              | None -> line)
          | _ -> line)
      payload

(* The first value cell, plus one. *)
let bump_value = function
  | v :: rest -> Option.map (fun n -> string_of_int (n + 1) :: rest) (int_of_string_opt v)
  | [] -> None

(* The interval's start, plus one. *)
let shift_interval cells =
  match List.rev (List.filter (( <> ) "") cells) with
  | iv :: rev_values when String.length iv > 2 && iv.[0] = '[' -> (
      match String.split_on_char ',' (String.sub iv 1 (String.length iv - 2)) with
      | [ a; b ] ->
          Option.map
            (fun a -> List.rev (Printf.sprintf "[%d,%s]" (a + 1) b :: rev_values))
            (int_of_string_opt a)
      | _ -> None)
  | _ -> None

(* Every value of every row of every reply, plus one: the snapshot oracle
   alone must flag the sampled replies. *)
let bump_everything : Loop.tamper =
 fun _ payload ->
  List.map
    (fun line ->
      match String.split_on_char '|' line with
      | "" :: cells when cells <> [] -> (
          match bump_value (List.map String.trim cells) with
          | Some cells' -> "| " ^ String.concat " | " (List.filter (( <> ) "") cells') ^ " |"
          | None -> line)
      | _ -> line)
    payload

let expect_clean ~trace workload =
  let r = Runner.run (config ~trace workload) in
  let name = Workloads.to_string workload ^ if trace then " (traced)" else "" in
  if not r.Runner.correct then
    fail "%s: clean run judged wrong: %s" name (String.concat "; " r.Runner.failures);
  if r.Runner.attempted < 2 then fail "%s: only %d statements" name r.Runner.attempted;
  (* The end-to-end metrics, CPU times included, are never 0; per-layer
     metrics of layers a workload never calls are. *)
  if not trace then
    List.iter
      (fun (m, _, v) ->
        if not (Float.is_finite v && v > 0.) then fail "%s: %s reads %g" name m v)
      r.Runner.metrics;
  Printf.printf "ok   %s: %d statements, all correct\n%!" name r.Runner.attempted

let expect_caught what workload tamper =
  let r = Runner.run (config ~tamper workload) in
  if r.Runner.correct || r.Runner.failed < 1 then
    fail "%s on %s was not caught" what (Workloads.to_string workload);
  Printf.printf "ok   %s on %s caught: %s\n%!" what (Workloads.to_string workload)
    (List.hd r.Runner.failures);
  r

(* A server with one worker and no queue: a parked SLEEP makes the next
   statement BUSY; an unknown relation is an ERR.  Both must count as
   failures even when the replay agrees with them. *)
let busy_and_err () =
  let dir = Filename.concat work_dir "busy" in
  Proc.mkdir_p dir;
  let srv = Proc.start ~extra:[ "--queue-depth"; "0" ] ~cli ~dir ~domains:1 [] in
  Fun.protect
    ~finally:(fun () -> Proc.stop srv)
    (fun () ->
      let a = Net.Client.connect ~port:srv.Proc.port ()
      and b = Net.Client.connect ~port:srv.Proc.port () in
      Net.Client.send a "SLEEP 3000";
      Unix.sleepf 0.5;
      let cpu () = 0 in
      let stmt text = Workloads.Read { text; aggs = [ Workloads.Count_star ]; window = None; view = false } in
      let busy = Loop.exec ~cpu ~keep:false ~timed:true ~k:0 b (stmt "SELECT COUNT(*) FROM Employed") in
      ignore (Net.Client.read_reply a);
      let err = Loop.exec ~cpu ~keep:false ~timed:true ~k:1 b (stmt "SELECT COUNT(*) FROM Nowhere") in
      List.iter
        (fun (what, (r : Loop.record), prefix) ->
          match r.Loop.outcome with
          | Loop.Failure msg when String.starts_with ~prefix msg -> ()
          | Loop.Failure msg -> fail "%s: unexpected failure %s" what msg
          | Loop.Answer _ -> fail "%s: the reply was not a failure" what)
        [ ("busy", busy, "BUSY"); ("err", err, "ERR") ];
      let v =
        Gate.judge ~seed:1 ~base:[||]
          ~replay:(fun _ -> Ok (Loop.digest_lines []))
          [ busy; err ]
      in
      if List.length v.Gate.failures <> 2 then
        fail "BUSY and ERR gave %d failures, not 2" (List.length v.Gate.failures);
      Printf.printf "ok   BUSY and ERR count as failures\n%!";
      Net.Client.close a;
      Net.Client.close b)

let () =
  Proc.remove_tree work_dir;
  Proc.mkdir_p work_dir;
  Fun.protect
    ~finally:(fun () ->
      Proc.stop_all ();
      Proc.remove_tree work_dir)
    (fun () ->
      List.iter (expect_clean ~trace:false) Workloads.all;
      List.iter (expect_clean ~trace:true) Workloads.all;
      let caught what w tamper = ignore (expect_caught what w tamper) in
      caught "a changed aggregate value" Workloads.Scan (tamper_row ~k:1 bump_value);
      caught "a changed valid interval" Workloads.Scan (tamper_row ~k:2 shift_interval);
      caught "a changed value among writes" Workloads.Mixed (tamper_row ~k:0 bump_value);
      let r = expect_caught "every value changed" Workloads.Mixed bump_everything in
      let by_oracle f =
        let key = "(oracle)" in
        let n = String.length key in
        let rec at i = i + n <= String.length f && (String.sub f i n = key || at (i + 1)) in
        at 0
      in
      if not (List.exists by_oracle r.Runner.failures) then
        fail "the snapshot oracle flagged none of the sampled replies";
      Printf.printf "ok   the snapshot oracle flags tampered sampled replies\n%!";
      busy_and_err ())
