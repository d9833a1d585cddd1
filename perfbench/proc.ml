(* The server under test as a child process: `tempagg serve --listen 0`
   with the workload's relations bound, its port read from the banner. *)

type t = { pid : int; port : int; dir : string; mutable running : bool }

let live : t list ref = ref []

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let banner_port text =
  let key = "listening on port " in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length text then None
    else if String.sub text i kl = key then
      let j = ref (i + kl) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub text (i + kl) (!j - i - kl))
    else find (i + 1)
  in
  find 0

let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)

(* Start the server with [bindings] as [-r NAME=PATH]; blocks until it
   listens.  Its stdout and stderr go to files under [dir]. *)
let start ?(extra = []) ~cli ~dir ~domains bindings =
  let out_path = Filename.concat dir "server.out"
  and err_path = Filename.concat dir "server.err" in
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = fd out_path and err = fd err_path in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ cli; "serve"; "--listen"; "0"; "--domains"; string_of_int domains ]
    @ extra
    @ List.concat_map (fun (name, path) -> [ "-r"; name ^ "=" ^ path ]) bindings
  in
  let pid = Unix.create_process cli (Array.of_list args) null out err in
  List.iter Unix.close [ out; err; null ];
  let deadline = Clock.now_ns () + 120_000_000_000 in
  let rec wait () =
    match banner_port (read_file err_path) with
    | Some port ->
        let t = { pid; port; dir; running = true } in
        live := t :: !live;
        t
    | None -> (
        match reap pid with
        | Some _ ->
            failwith
              (Printf.sprintf "server exited before listening: %s"
                 (String.trim (read_file err_path)))
        | None ->
            if Clock.now_ns () > deadline then begin
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              failwith "server did not start listening within 120 s"
            end;
            Unix.sleepf 0.005;
            wait ())
  in
  wait ()

(* Peak resident set of the server so far (VmHWM), in MiB. *)
let peak_rss_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match
            String.split_on_char ' ' (String.trim v)
            |> List.filter (( <> ) "")
          with
          | kb :: _ -> (
              match float_of_string_opt kb with
              | Some kb -> kb /. 1024.
              | None -> acc)
          | [] -> acc)
      | _ -> acc)
    nan
    (String.split_on_char '\n' status)

(* CPU time process [pid] has run so far, summed over its threads, in
   nanoseconds: the first field of each /proc/PID/task/TID/schedstat.
   The kernel counts only time the thread was on a CPU, so neither
   waiting for a CPU nor time the hypervisor steals from this VM adds to
   it, as both add to wall-clock latency on a shared host. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        String.split_on_char ' '
          (read_file (Filename.concat dir (tid ^ "/schedstat")))
      with
      | ns :: _ -> acc + Option.value (int_of_string_opt ns) ~default:0
      | [] -> acc)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* SIGTERM (the server drains and exits), SIGKILL after 10 s. *)
let stop t =
  if t.running then begin
    t.running <- false;
    live := List.filter (fun s -> s != t) !live;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Clock.now_ns () + 10_000_000_000 in
    let rec wait () =
      match reap t.pid with
      | Some _ -> ()
      | None ->
          if Clock.now_ns () > deadline then begin
            (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] t.pid)
          end
          else begin
            Unix.sleepf 0.01;
            wait ()
          end
    in
    wait ()
  end

let stop_all () = List.iter stop !live

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end
