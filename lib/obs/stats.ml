(* Per-relation statistics: a bounded ring of per-query outcome records
   with exponentially-decayed aggregates, plus the result of the last
   eager ANALYZE scan.  The summary feeds the optimizer's observed path
   (Optimizer.choose_observed); the store keys entries by case-folded
   relation name and survives catalog rebuilds. *)

type outcome = {
  cardinality : int;
  algorithm : string;
  elapsed_ms : float;
  peak_bytes : int;
  k_observed : int option;
      (* A k-ordering bound proven by the run itself (e.g. a k-ordered
         tree that completed without order violations on a plain scan). *)
  segments : int option;  (* un-coalesced constant intervals *)
  degradations : int;
}

type analysis = {
  an_cardinality : int;
  an_k : int;  (* streaming upper bound on k_of *)
  an_slack : int;
  an_percentage : float option;
  an_time_ordered : bool;
  an_distinct_endpoints : int;
}

type t = {
  capacity : int;
  alpha : float;
  mutable ring : outcome array;
  mutable filled : int;
  mutable next : int;
  mutable total : int;
  mutable dec_ms : float;
  mutable dec_peak : float;
  mutable dec_segments : float;
  mutable segment_obs : int;
  mutable last_cardinality : int;  (* -1 = unknown *)
  mutable best_k : int;  (* max_int = unknown; smallest proven bound *)
  mutable last_algorithm : string;
  mutable analysis : analysis option;
}

let default_capacity = 64
let default_alpha = 0.2

let create ?(capacity = default_capacity) ?(alpha = default_alpha) () =
  if capacity < 1 then invalid_arg "Stats.create: capacity must be >= 1";
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Stats.create: alpha must be in (0, 1]";
  {
    capacity;
    alpha;
    ring = [||];
    filled = 0;
    next = 0;
    total = 0;
    dec_ms = 0.;
    dec_peak = 0.;
    dec_segments = 0.;
    segment_obs = 0;
    last_cardinality = -1;
    best_k = max_int;
    last_algorithm = "";
    analysis = None;
  }

let decay t current x =
  (* First observation seeds the decayed mean directly. *)
  if t.total = 1 then x else (t.alpha *. x) +. ((1. -. t.alpha) *. current)

let record t o =
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity o;
  t.ring.(t.next) <- o;
  t.next <- (t.next + 1) mod t.capacity;
  t.filled <- Stdlib.min (t.filled + 1) t.capacity;
  t.total <- t.total + 1;
  t.dec_ms <- decay t t.dec_ms o.elapsed_ms;
  t.dec_peak <- decay t t.dec_peak (float_of_int o.peak_bytes);
  (match o.segments with
  | Some s ->
      t.segment_obs <- t.segment_obs + 1;
      t.dec_segments <-
        (if t.segment_obs = 1 then float_of_int s
         else (t.alpha *. float_of_int s) +. ((1. -. t.alpha) *. t.dec_segments))
  | None -> ());
  t.last_cardinality <- o.cardinality;
  t.last_algorithm <- o.algorithm;
  match o.k_observed with
  | Some k when o.degradations = 0 -> t.best_k <- Stdlib.min t.best_k k
  | _ -> ()

let set_analysis t a =
  t.analysis <- Some a;
  t.last_cardinality <- a.an_cardinality;
  t.best_k <- Stdlib.min t.best_k a.an_k

(* A write to the relation voids every ordering claim: a single
   out-of-place tuple can raise k arbitrarily.  Latency and size
   aggregates keep decaying instead. *)
let invalidate t =
  t.best_k <- max_int;
  t.analysis <- None

let outcomes t =
  (* Newest first. *)
  List.init t.filled (fun i ->
      t.ring.((t.next - 1 - i + (2 * t.capacity)) mod t.capacity))

type summary = {
  observations : int;
  analyzed : bool;
  cardinality : int option;
  time_ordered : bool option;
  k_upper : int option;
  constant_intervals : int option;
  distinct_endpoints : int option;
  mean_eval_ms : float option;
  peak_bytes : int option;
  source : string;
}

let empty_summary =
  {
    observations = 0;
    analyzed = false;
    cardinality = None;
    time_ordered = None;
    k_upper = None;
    constant_intervals = None;
    distinct_endpoints = None;
    mean_eval_ms = None;
    peak_bytes = None;
    source = "none";
  }

let summary t =
  let analyzed = t.analysis <> None in
  {
    observations = t.total;
    analyzed;
    cardinality = (if t.last_cardinality >= 0 then Some t.last_cardinality else None);
    time_ordered =
      Option.map (fun a -> a.an_time_ordered) t.analysis;
    k_upper = (if t.best_k < max_int then Some t.best_k else None);
    constant_intervals =
      (if t.segment_obs > 0 then
         Some (int_of_float (Float.round t.dec_segments))
       else None);
    distinct_endpoints =
      Option.map (fun a -> a.an_distinct_endpoints) t.analysis;
    mean_eval_ms = (if t.total > 0 then Some t.dec_ms else None);
    peak_bytes =
      (if t.total > 0 then Some (int_of_float t.dec_peak) else None);
    source =
      (match (analyzed, t.total > 0) with
      | true, true -> "analyze+runtime"
      | true, false -> "analyze"
      | false, true -> "runtime"
      | false, false -> "none");
  }

let to_string name t =
  let s = summary t in
  let opt_int = function None -> "-" | Some v -> string_of_int v in
  Printf.sprintf
    "%-16s card=%s k<=%s%s ordered=%s segs~%s endpoints~%s runs=%d mean-ms=%s \
     algo=%s src=%s"
    name (opt_int s.cardinality) (opt_int s.k_upper)
    (match t.analysis with
    | Some { an_slack; _ } when an_slack > 0 ->
        Printf.sprintf "(+%d)" an_slack
    | _ -> "")
    (match s.time_ordered with
    | None -> "-"
    | Some b -> string_of_bool b)
    (opt_int s.constant_intervals)
    (opt_int s.distinct_endpoints)
    s.observations
    (match s.mean_eval_ms with
    | None -> "-"
    | Some ms -> Printf.sprintf "%.2f" ms)
    (if t.last_algorithm = "" then "-" else t.last_algorithm)
    s.source

(* ---- distinct-count sketch ----

   Adaptive sampling (Wegman's technique): keep only values whose hash
   has [level] trailing zero bits; when the kept set outgrows the
   capacity, raise the level and re-filter.  The estimate is
   |kept| * 2^level, unbiased with relative error ~1/sqrt(capacity). *)

module Distinct = struct
  (* [kept] maps each sampled hash to the raw value that produced it, so
     the sketch doubles as a uniform sample of the distinct values
     (feeding e.g. partition-boundary selection) at no extra memory
     class. *)
  type sketch = {
    d_capacity : int;
    mutable level : int;
    kept : (int, int) Hashtbl.t;
  }

  (* Multiply-xorshift finalizer (constants fit OCaml's 63-bit int);
     the trailing xor-shifts matter because sampling tests low bits. *)
  let hash x =
    let x = x lxor (x lsr 33) in
    let x = x * 0x2545F4914F6CDD1D in
    let x = x lxor (x lsr 29) in
    let x = x * 0x1B03738712FAD5C9 in
    x lxor (x lsr 32)

  let sketch ?(capacity = 1024) () =
    if capacity < 16 then invalid_arg "Distinct.sketch: capacity must be >= 16";
    { d_capacity = capacity; level = 0; kept = Hashtbl.create capacity }

  let sampled s h = h land ((1 lsl s.level) - 1) = 0

  let add s x =
    let h = hash x in
    if sampled s h && not (Hashtbl.mem s.kept h) then begin
      Hashtbl.add s.kept h x;
      if Hashtbl.length s.kept > s.d_capacity then begin
        s.level <- s.level + 1;
        let survivors =
          Hashtbl.fold
            (fun h x acc -> if sampled s h then (h, x) :: acc else acc)
            s.kept []
        in
        Hashtbl.reset s.kept;
        List.iter (fun (h, x) -> Hashtbl.add s.kept h x) survivors
      end
    end

  let estimate s = Hashtbl.length s.kept lsl s.level

  let sample s =
    List.sort Int.compare (Hashtbl.fold (fun _ x acc -> x :: acc) s.kept [])
end

(* ---- store ---- *)

type store = (string, t) Hashtbl.t

let fold_name = String.lowercase_ascii
let create_store () : store = Hashtbl.create 16

let store_get store name =
  let key = fold_name name in
  match Hashtbl.find_opt store key with
  | Some t -> t
  | None ->
      let t = create () in
      Hashtbl.replace store key t;
      t

let store_find store name = Hashtbl.find_opt store (fold_name name)
let store_names store = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) store [])
let store_invalidate store name = Option.iter invalidate (store_find store name)

let store_to_string store =
  match store_names store with
  | [] -> "no statistics collected (run queries or ANALYZE a relation)"
  | names ->
      String.concat "\n"
        (List.map
           (fun name -> to_string name (Option.get (store_find store name)))
           names)
