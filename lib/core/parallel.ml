open Temporal

(* Contiguous shards so that any ordering property of the input (time
   sortedness, k-orderedness) survives sharding: a contiguous slice of a
   k-ordered sequence is itself k-ordered, so a k-ordered tree is a valid
   inner algorithm. *)
let shard_bounds ~shards n i = (i * n / shards, (i + 1) * n / shards)

let eval ?instrument ?fallback_shard ?offsets ~domains ~eval_shard monoid
    tuples =
  if domains < 1 then invalid_arg "Parallel.eval: domains must be >= 1";
  let n = Array.length tuples in
  (* Explicit shard boundaries (e.g. a time-partitioned relation's shard
     joints) override the default equal-count slicing; each offsets
     window [o(i), o(i+1)) is one shard, empty shards allowed. *)
  (match offsets with
  | None -> ()
  | Some o ->
      let ok =
        Array.length o >= 2
        && o.(0) = 0
        && o.(Array.length o - 1) = n
        && Array.for_all Fun.id (Array.init (Array.length o - 1)
             (fun i -> o.(i) <= o.(i + 1)))
      in
      if not ok then
        invalid_arg
          (Printf.sprintf
             "Parallel.eval: offsets must rise from 0 to %d (the input \
              length)"
             n));
  let d =
    match offsets with
    | Some o -> Array.length o - 1
    | None -> if n = 0 then 1 else min domains n
  in
  (* Spawned domains start with an empty span stack, so capture the
     parent span and the request trace id here and attach each shard
     span to them explicitly. *)
  let span_parent = Obs.Trace.current () in
  let span_trace = Obs.Trace.current_trace () in
  let shard_span i f =
    Obs.Trace.with_span ?parent:span_parent ~trace:span_trace
      ~attrs:[ ("shard", string_of_int i) ]
      "shard" f
  in
  if d = 1 then
    (* No parallelism to extract: evaluate inline, no domain overhead. *)
    Timeline.map monoid.Monoid.output
      (shard_span 0 (fun () -> eval_shard ~instrument (Array.to_seq tuples)))
  else begin
    let node_bytes =
      match instrument with
      | Some i -> Instrument.node_bytes i
      | None -> 16
    in
    let shard_instruments =
      Array.init d (fun _ ->
          Option.map
            (fun parent ->
              let inst = Instrument.create ~node_bytes () in
              (* Shards run under the same guard as the parent (each
                 checked against its own live bytes). *)
              Instrument.set_hook inst (Instrument.hook parent);
              inst)
            instrument)
    in
    (* Shards only read, so they share [tuples] instead of copying it. *)
    let shard_seq i =
      let lo, hi =
        match offsets with
        | Some o -> (o.(i), o.(i + 1))
        | None -> shard_bounds ~shards:d n i
      in
      Seq.init (hi - lo) (fun j -> tuples.(lo + j))
    in
    let run i =
      shard_span i (fun () ->
          eval_shard ~instrument:shard_instruments.(i) (shard_seq i))
    in
    let handles =
      Array.init (d - 1) (fun i -> Domain.spawn (fun () -> run (i + 1)))
    in
    let results = Array.make d None in
    let failures = Array.make d None in
    (match run 0 with
    | r -> results.(0) <- Some r
    | exception e -> failures.(0) <- Some e);
    (* Join every domain even if a shard failed, so no domain leaks. *)
    Array.iteri
      (fun i handle ->
        match Domain.join handle with
        | r -> results.(i + 1) <- Some r
        | exception e -> failures.(i + 1) <- Some e)
      handles;
    (* Recovery: with a fallback, each failed shard is re-evaluated
       inline (on this domain, after every join) instead of aborting the
       whole query.  The shard's instrument is reset first — its partial
       counts belong to the abandoned attempt — keeping any guard hook. *)
    (match fallback_shard with
    | None -> (
        match Array.find_opt Option.is_some failures with
        | Some (Some e) -> raise e
        | _ -> ())
    | Some fallback ->
        Array.iteri
          (fun i failure ->
            match failure with
            | None -> ()
            | Some exn ->
                Option.iter Instrument.reset shard_instruments.(i);
                results.(i) <-
                  Some
                    (fallback ~shard:i ~exn ~instrument:shard_instruments.(i)
                       (shard_seq i)))
          failures);
    (* The shards ran concurrently: their peaks were live at the same
       time, so the parent's peak is their sum. *)
    (match instrument with
    | None -> ()
    | Some inst ->
        let total = ref 0 in
        Array.iter
          (function
            | None -> ()
            | Some shard_inst ->
                let s = Instrument.snapshot shard_inst in
                total := !total + s.Instrument.peak_live;
                Instrument.absorb inst s)
          shard_instruments;
        Instrument.free_many inst !total);
    let timeline i =
      match results.(i) with Some t -> t | None -> assert false
    in
    (* Pairwise divide-and-conquer merge: each level halves the number of
       timelines, so every segment is touched O(log d) times. *)
    let rec reduce lo hi =
      if hi - lo = 1 then timeline lo
      else
        let mid = (lo + hi) / 2 in
        Timeline.merge ~combine:monoid.Monoid.combine (reduce lo mid)
          (reduce mid hi)
    in
    Timeline.map monoid.Monoid.output (reduce 0 d)
  end
