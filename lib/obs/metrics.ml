(* Metrics registry: named counters, gauges and log-bucketed histograms
   with a Prometheus-style text exposition.

   A metric is identified by (name, labels); registering the same pair
   twice returns the same underlying cell.  Values held elsewhere (queue
   depths, session totals, recorder pressure) come in through sources:
   callbacks registered once and run at the start of every read, so no
   reader has to refresh anything first.  The exposition sorts metrics
   by name then labels, prints integral values without a decimal point,
   and renders histograms as cumulative _bucket/_sum/_count series — all
   so the output is stable enough for a golden test. *)

type kind = Counter | Gauge | Histogram

type cell = { mutable value : float; hist : Histogram.t option }

type metric = {
  name : string;
  labels : (string * string) list;
  mutable help : string;
  kind : kind;
  cell : cell;
}

type t = {
  tbl : (string * (string * string) list, metric) Hashtbl.t;
  mutable sources : (unit -> unit) list;  (* in registration order *)
}

type counter = cell
type gauge = cell

let create () = { tbl = Hashtbl.create 32; sources = [] }
let source t f = t.sources <- t.sources @ [ f ]
let run_sources t = List.iter (fun f -> f ()) t.sources

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let validate_name name =
  if name = "" then invalid_arg "Metrics: empty metric name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name))
    name

let register t ~name ~labels ~help ~kind ~make =
  validate_name name;
  let labels = List.sort compare labels in
  match Hashtbl.find_opt t.tbl (name, labels) with
  | Some m ->
      if m.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name
             (kind_name m.kind));
      if help <> "" then m.help <- help;
      m
  | None ->
      (* The kind is a property of the whole metric family: a second
         label set may not change it (the exposition prints one # TYPE
         line per name, which must hold for every series under it). *)
      Hashtbl.iter
        (fun (n, _) m ->
          if String.equal n name && m.kind <> kind then
            invalid_arg
              (Printf.sprintf
                 "Metrics: %s already registered as a %s (under other labels)"
                 name (kind_name m.kind)))
        t.tbl;
      let m = { name; labels; help; kind; cell = make () } in
      Hashtbl.replace t.tbl (name, labels) m;
      m

let counter t ?(help = "") ?(labels = []) name =
  (register t ~name ~labels ~help ~kind:Counter ~make:(fun () ->
       { value = 0.; hist = None }))
    .cell

let gauge t ?(help = "") ?(labels = []) name =
  (register t ~name ~labels ~help ~kind:Gauge ~make:(fun () ->
       { value = 0.; hist = None }))
    .cell

let histogram t ?(help = "") ?(labels = []) ?gamma name =
  let m =
    register t ~name ~labels ~help ~kind:Histogram ~make:(fun () ->
        { value = 0.; hist = Some (Histogram.create ?gamma ()) })
  in
  Option.get m.cell.hist

let inc c = c.value <- c.value +. 1.

let add c v =
  if v < 0. then invalid_arg "Metrics.add: counters only go up";
  c.value <- c.value +. v

let set (g : gauge) v = g.value <- v
let set_int (g : gauge) v = g.value <- float_of_int v
let counter_value (c : counter) = c.value
let gauge_value (g : gauge) = g.value

let value t ?(labels = []) name =
  match Hashtbl.find_opt t.tbl (name, List.sort compare labels) with
  | Some { cell = { hist = None; value }; _ } -> Some value
  | _ -> None

(* ---- structured enumeration ---- *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_kind : kind;
  s_value : float;  (* counter/gauge value; a histogram's sum *)
  s_count : int;  (* a histogram's observation count; 1 otherwise *)
  s_buckets : (float * int) list;  (* non-empty (bound, count); [] unless histogram *)
}

let sorted_metrics t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let samples t =
  run_sources t;
  List.map
    (fun m ->
      match m.cell.hist with
      | None ->
          {
            s_name = m.name;
            s_labels = m.labels;
            s_kind = m.kind;
            s_value = m.cell.value;
            s_count = 1;
            s_buckets = [];
          }
      | Some h ->
          {
            s_name = m.name;
            s_labels = m.labels;
            s_kind = m.kind;
            s_value = Histogram.sum h;
            s_count = Histogram.count h;
            s_buckets = Histogram.nonempty_buckets h;
          })
    (sorted_metrics t)

(* ---- exposition ---- *)

(* Prometheus prints counts as bare integers; keep that, and fall back
   to %g-style shortest form for genuine floats. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_string labels =
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let expose t =
  run_sources t;
  let metrics = sorted_metrics t in
  let buf = Buffer.create 1024 in
  (* # HELP / # TYPE are per metric family: emitted once per name, even
     when the family spans several label sets.  The help text may be
     attached to any member, so take the first non-empty one. *)
  let family_help name =
    List.fold_left
      (fun acc m ->
        if acc = "" && String.equal m.name name then m.help else acc)
      "" metrics
  in
  let last_name = ref "" in
  List.iter
    (fun m ->
      if m.name <> !last_name then begin
        last_name := m.name;
        let help = family_help m.name in
        if help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.name help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" m.name (kind_name m.kind))
      end;
      match m.cell.hist with
      | None ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" m.name (label_string m.labels)
               (number m.cell.value))
      | Some h ->
          let cumulative = ref 0 in
          List.iter
            (fun (bound, count) ->
              cumulative := !cumulative + count;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" m.name
                   (label_string (m.labels @ [ ("le", Printf.sprintf "%.9g" bound) ]))
                   !cumulative))
            (Histogram.nonempty_buckets h);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" m.name
               (label_string (m.labels @ [ ("le", "+Inf") ]))
               (Histogram.count h));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" m.name (label_string m.labels)
               (number (Histogram.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" m.name (label_string m.labels)
               (Histogram.count h)))
    metrics;
  Buffer.contents buf

(* Atomic exposition-to-disk: a scraper tailing the file must never see
   a half-written exposition, so write a sibling temp file and rename
   it into place (atomic on POSIX within one filesystem). *)
let write_file t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (expose t));
  Sys.rename tmp path
