(* The closed loop: the connection sends its next statement only after
   the reply to the previous one has arrived (Net.Client is synchronous
   and the server keeps at most one statement per connection in flight),
   so a slower server receives less load. *)

type outcome =
  | Answer of { digest : Digest.t; payload : string list option }
      (** [payload] is kept only for replies sampled for the oracle. *)
  | Failure of string  (** ERR, BUSY, protocol violation or client failure. *)

type record = {
  stmt : Workloads.stmt;
  timed : bool;
  latency_ns : int;
  cpu_ns : int;
      (** CPU time the server and this client spent on the statement,
          from the [cpu] clock given to [exec]. *)
  outcome : outcome;
}

let digest_lines lines = Digest.string (String.concat "\n" lines)

let classify ~keep = function
  | Ok (Net.Protocol.Ok_reply { payload; _ }) ->
      Answer
        {
          digest = digest_lines payload;
          payload = (if keep then Some payload else None);
        }
  | Ok (Net.Protocol.Err msg) -> Failure ("ERR " ^ msg)
  | Ok (Net.Protocol.Busy reason) -> Failure ("BUSY " ^ reason)
  | Ok Net.Protocol.Pong | Ok Net.Protocol.Bye ->
      Failure "protocol violation: PONG/BYE answering a statement"
  | Error msg -> Failure ("protocol violation: " ^ msg)

(* Which replies the oracle re-checks: about one in eight, fixed by the
   seed and the statement's position. *)
let sampled ~seed k = Hashtbl.hash (seed, k) mod 8 = 0

type tamper = int -> string list -> string list
(** Rewrites the payload of the k-th timed reply — how the benchmark's
    own test shows that a wrong answer is caught. *)

(* [cpu ()] reads the CPU time used so far by the server and this
   client together. *)
let exec ?tamper ~cpu ~keep ~timed ~k client stmt =
  let c0 = cpu () in
  let t0 = Clock.now_ns () in
  let reply =
    try Net.Client.request client (Workloads.text stmt)
    with e -> Error ("client failure: " ^ Printexc.to_string e)
  in
  let latency_ns = Clock.now_ns () - t0 in
  let cpu_ns = cpu () - c0 in
  let reply =
    match (reply, tamper) with
    | Ok (Net.Protocol.Ok_reply r), Some f when timed ->
        Ok (Net.Protocol.Ok_reply { r with payload = f k r.payload })
    | _ -> reply
  in
  { stmt; timed; latency_ns; cpu_ns; outcome = classify ~keep reply }

let broken r =
  match r.outcome with
  | Failure msg ->
      String.starts_with ~prefix:"protocol violation" msg
      || String.starts_with ~prefix:"client failure" msg
  | Answer _ -> false

(* The untimed statements: the setup statements and the warm-up (the
   stream's first statement). *)
let warm_up ~cpu client (w : Workloads.t) next =
  let run stmt = exec ~cpu ~keep:true ~timed:false ~k:(-1) client stmt in
  let setup = List.map run w.Workloads.setup in
  match next () with
  | None -> setup
  | Some stmt -> setup @ [ run stmt ]

(* Every run times at least this many statements, so that at least ten
   lie beyond its p90. *)
let min_statements = 100

(* The timed loop: statements until [seconds] have passed and at least
   [min_statements] have been sent, rounded up to a whole cycle, or
   until the stream ends or the connection breaks.  Returns the records
   and the phase's wall time. *)
let run_timed ?tamper ~cpu ~seed ~cycle ~seconds client next =
  let t0 = Clock.now_ns () in
  let deadline_ns = t0 + int_of_float (seconds *. 1e9) in
  let rec go k acc =
    if k mod cycle = 0 && k >= min_statements && Clock.now_ns () >= deadline_ns
    then List.rev acc
    else
      match next () with
      | None -> List.rev acc
      | Some stmt ->
          let r =
            exec ?tamper ~cpu ~keep:(sampled ~seed k) ~timed:true ~k client
              stmt
          in
          if broken r then List.rev (r :: acc) else go (k + 1) (r :: acc)
  in
  let records = go 0 [] in
  (records, Clock.now_ns () - t0)

(* Median PING round trip over [n] pings, in microseconds. *)
let ping_us client n =
  let samples =
    Array.init n (fun _ ->
        let t0 = Clock.now_ns () in
        match Net.Client.request client "PING" with
        | Ok Net.Protocol.Pong -> float_of_int (Clock.now_ns () - t0) /. 1e3
        | _ -> failwith "PING was not answered with PONG")
  in
  Array.sort compare samples;
  samples.(n / 2)
