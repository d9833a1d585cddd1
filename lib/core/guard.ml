exception
  Budget_exceeded of {
    budget_bytes : int;
    used_bytes : int;
  }

exception
  Deadline_exceeded of {
    deadline_ms : float;
    elapsed_ms : float;
  }

type t = {
  budget_bytes : int option;
  deadline_ms : float option;
  started_at : int;  (* Obs.Trace.now_us reading *)
  deadline_at : int;  (* absolute, on the same clock; max_int when unset *)
  mutable ticks : int;
}

(* Clock reads are cheap but not free; cooperative checks sample
   the clock every [clock_stride] ticks.  The stride is a power of two so
   the check is a single masked compare, and the very first tick always
   samples so a zero deadline fails fast and deterministically. *)
let clock_stride_mask = 255

let create ?memory_budget ?deadline_ms () =
  (match memory_budget with
  | Some b when b < 0 -> invalid_arg "Guard.create: negative memory budget"
  | _ -> ());
  (match deadline_ms with
  | Some ms when ms < 0. -> invalid_arg "Guard.create: negative deadline"
  | _ -> ());
  let now = Obs.Trace.now_us () in
  {
    budget_bytes = memory_budget;
    deadline_ms;
    started_at = now;
    deadline_at =
      (match deadline_ms with
      | Some ms -> now + int_of_float (ms *. 1000.)
      | None -> max_int);
    ticks = 0;
  }

let unlimited t = t.budget_bytes = None && t.deadline_ms = None

(* A shard-local view of the same guard: the memory budget is divided
   [ways] (shards run concurrently, so their live bytes add up against
   the query's cap), while the deadline fields alias the parent's clock
   readings — ticks on the split still race benignly on the parent's
   counter because the split shares [started_at]/[deadline_at] and each
   shard keeps its own tick counter. *)
let split t ways =
  if ways < 1 then invalid_arg "Guard.split: ways must be >= 1";
  {
    t with
    budget_bytes = Option.map (fun b -> b / ways) t.budget_bytes;
    ticks = 0;
  }

let check t =
  match t.deadline_ms with
  | None -> ()
  | Some deadline_ms ->
      (* [ticks] is bumped from every domain running under this guard;
         the races are benign — a lost increment only shifts when the
         clock is next sampled. *)
      t.ticks <- t.ticks + 1;
      if (t.ticks - 1) land clock_stride_mask = 0 then begin
        let now = Obs.Trace.now_us () in
        if now > t.deadline_at then
          let elapsed_ms = Obs.Trace.to_ms (now - t.started_at) in
          raise (Deadline_exceeded { deadline_ms; elapsed_ms })
      end

let check_instrument t inst =
  (match t.budget_bytes with
  | None -> ()
  | Some budget_bytes ->
      let used_bytes = Instrument.live inst * Instrument.node_bytes inst in
      if used_bytes > budget_bytes then
        raise (Budget_exceeded { budget_bytes; used_bytes }));
  check t

let hook t = if unlimited t then None else Some (check_instrument t)

let attach t inst = Instrument.set_hook inst (hook t)

let wrap_seq t seq =
  if t.deadline_ms = None then seq
  else
    Seq.map
      (fun x ->
        check t;
        x)
      seq

let describe = function
  | Budget_exceeded { budget_bytes; used_bytes } ->
      Some
        (Printf.sprintf "memory budget exceeded (%d bytes used, budget %d)"
           used_bytes budget_bytes)
  | Deadline_exceeded { deadline_ms; elapsed_ms } ->
      Some
        (Printf.sprintf "deadline exceeded (%.1f ms elapsed, deadline %g ms)"
           elapsed_ms deadline_ms)
  | _ -> None
