open Temporal

let quantize ~origin ~horizon ~granule data =
  Seq.map
    (fun (iv, v) ->
      if
        Chronon.( < ) (Interval.start iv) origin
        || Chronon.( > ) (Interval.stop iv) horizon
      then
        invalid_arg
          (Printf.sprintf "Span.eval: %s outside [%s,%s]"
             (Interval.to_string iv) (Chronon.to_string origin)
             (Chronon.to_string horizon));
      let lo, hi = Granule.quantize granule iv in
      let start = Chronon.of_int lo in
      let stop =
        match hi with
        | Some hi -> Chronon.of_int hi
        | None -> Chronon.forever
      in
      (Interval.make start stop, v))
    data

(* Maps a segment of the span-index timeline back to real, span-aligned
   chronons, clipped to [origin,horizon]. *)
let unquantize ~origin ~horizon ~granule iv =
  let lo = Chronon.to_int (Interval.start iv) in
  let start =
    Chronon.max origin (Interval.start (Granule.span_of granule lo))
  in
  let stop =
    if Chronon.is_finite (Interval.stop iv) then
      let hi = Chronon.to_int (Interval.stop iv) in
      Chronon.min horizon (Interval.stop (Granule.span_of granule hi))
    else horizon
  in
  Interval.make start stop

(* The preamble both entry points share: check the anchor, then hand [k]
   the span-index bounds, the quantized input and [back], which maps an
   index timeline to span-aligned chronons. *)
let in_index_space ~origin ~horizon ~granule data k =
  if Chronon.( > ) (granule : Granule.t).Granule.anchor origin then
    Error "Span.eval: granule anchor after origin"
  else
    let index c = Chronon.of_int (Granule.index_of granule c) in
    let back tl =
      Timeline.of_list
        (List.map
           (fun (iv, r) -> (unquantize ~origin ~horizon ~granule iv, r))
           (Timeline.to_list tl))
    in
    Ok
      (k ~origin:(index origin)
         ~horizon:(if Chronon.is_finite horizon then index horizon else horizon)
         (quantize ~origin ~horizon ~granule data)
         back)

let eval_aux ?(origin = Chronon.origin) ?(horizon = Chronon.forever)
    ?(algorithm = Engine.Aggregation_tree) ?instrument ~granule monoid data =
  match
    in_index_space ~origin ~horizon ~granule data
      (fun ~origin ~horizon quantized back ->
        back (Engine.eval ~origin ~horizon ?instrument algorithm monoid quantized))
  with
  | Ok timeline -> timeline
  | Error msg -> invalid_arg msg

let eval ?origin ?horizon ?algorithm ~granule monoid data =
  eval_aux ?origin ?horizon ?algorithm ~granule monoid data

let eval_robust ?(origin = Chronon.origin) ?(horizon = Chronon.forever)
    ?(algorithm = Engine.Aggregation_tree) ?on_error ?memory_budget
    ?deadline_ms ?profile ~granule monoid data =
  match
    in_index_space ~origin ~horizon ~granule data
      (fun ~origin ~horizon quantized back ->
        Result.map
          (fun (tl, degradations) -> (back tl, degradations))
          (Engine.eval_robust ~origin ~horizon ?on_error ?memory_budget
             ?deadline_ms ?profile algorithm monoid quantized))
  with
  | Ok result -> result
  | Error msg -> Error (Engine.Eval_failed msg)

let eval_with_stats ?origin ?horizon ?algorithm ~granule monoid data =
  let inst =
    Instrument.create
      ~node_bytes:
        (Engine.node_bytes
           (Option.value algorithm ~default:Engine.Aggregation_tree))
      ()
  in
  let timeline =
    eval_aux ?origin ?horizon ?algorithm ~instrument:inst ~granule monoid data
  in
  (timeline, Instrument.snapshot inst)
