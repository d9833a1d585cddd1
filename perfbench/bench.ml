(* The benchmark's entry point; see README.md.

     bench.exe --workload scan|mixed --seed N --seconds S --trace 0|1
               --cli PATH

   Prints a report, then one JSON line with the metrics as the last line
   of standard output.  Exits 0 only when every reply was correct. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload scan|mixed --seed N --seconds S \
     --trace 0|1 --cli PATH";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get key conv =
    match Option.bind (Hashtbl.find_opt args key) conv with
    | Some v -> v
    | None -> usage ()
  in
  let cfg =
    {
      Perfbench.Runner.workload = get "workload" Perfbench.Workloads.of_string;
      seed = get "seed" int_of_string_opt;
      seconds = get "seconds" float_of_string_opt;
      trace = get "trace" (function "0" -> Some false | "1" -> Some true | _ -> None);
      cli = get "cli" Option.some;
      scale = Perfbench.Workloads.Full;
      work_dir = ".bench_run";
      out_dir = ".bench_out";
      tamper = None;
    }
  in
  (* Stopped from outside: stop the server too, then fail. *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Perfbench.Proc.stop_all ();
             exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  match Perfbench.Runner.run cfg with
  | r ->
      print_string r.Perfbench.Runner.report;
      print_endline (Perfbench.Runner.json r);
      exit (if r.Perfbench.Runner.correct then 0 else 1)
  | exception e ->
      Perfbench.Proc.stop_all ();
      Printf.eprintf "benchmark failed: %s\n%!" (Printexc.to_string e);
      exit 2
