(* Drives the built tempagg binary as a user would — shared by the
   suites that test the command line and the stdin transport
   ([tempagg serve --listen stdin < script]). *)

(* The CLI binary sits next to the tests in the build tree:
   _build/default/{test/*.exe, bin/tempagg_cli.exe}.  Resolve it from
   the executable's own path so the tests work from any cwd. *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "tempagg_cli.exe")

(* Runs the CLI with the given arguments and extra environment
   variables, stdin read from the file [?stdin] when given, returning
   (exit code, stdout and stderr). *)
let run ?(env = []) ?stdin args =
  let out = Filename.temp_file "tempagg_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s%s %s%s > %s 2>&1"
          (String.concat ""
             (List.map (fun (k, v) -> k ^ "=" ^ Filename.quote v ^ " ") env))
          cli
          (String.concat " " (List.map Filename.quote args))
          (match stdin with
          | Some path -> " < " ^ Filename.quote path
          | None -> "")
          out
      in
      let code = Sys.command cmd in
      (code, In_channel.with_open_text out In_channel.input_all))

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun x -> remove_tree (Filename.concat path x))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tempdir f =
  let dir = Filename.temp_file "tempagg_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* [tempagg serve --listen stdin ARGS < script]: one statement per line;
   replies go to stdout and the report to stderr, both returned. *)
let serve_stdin ?env ?(args = []) script =
  with_tempdir (fun dir ->
      let path = Filename.concat dir "ops.tsql" in
      Out_channel.with_open_text path (fun oc -> output_string oc script);
      run ?env ~stdin:path ([ "serve"; "--listen"; "stdin" ] @ args))

(* The report row of one statement kind, split into its fields:
   [kind; ops; mean-us; p50-us; p90-us; p99-us; max-us]. *)
let kind_row output kind =
  List.find_map
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | k :: rest when k = kind && List.length rest = 6 -> Some (k :: rest)
      | _ -> None)
    (String.split_on_char '\n' output)
