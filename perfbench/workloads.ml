(* The two workloads: their inputs and statement sequences, all drawn
   from the workload seed alone.  Each drives one connection.

   - scan: the paper's query.  50k tuples in random order, 40 %
     long-lived over a 1M-chronon lifespan (Section 6 defaults), loaded
     by the server from a heap file.  The connection cycles through
     COUNT( * ), SUM(salary), AVG(salary) over a 25 % window, COUNT( * ),
     SUM(salary) and MAX(salary), the last five over the full timeline.
   - mixed: writes beside reads.  A 50k-tuple partitioned relation [T]
     and an incremental view [V] over it.  The connection replays a
     trace in fixed blocks of 20 with seeded values: 20 % INSERT, 5 %
     DELETE, 35 % view reads over a hot set of 32 windows and 40 %
     base-relation range aggregates over windows 2.5 % of the lifespan
     wide. *)

open Temporal
open Relation

type name = Scan | Mixed

let all = [ Scan; Mixed ]
let to_string = function Scan -> "scan" | Mixed -> "mixed"
let of_string s = List.find_opt (fun w -> to_string w = s) all

(* [Tiny] shrinks every input for the benchmark's own test. *)
type scale = Full | Tiny

let lifespan = 1_000_000

type agg = Count_star | Sum | Avg | Min | Max

type stmt =
  | Read of {
      text : string;
      aggs : agg list;  (** Result columns, in order. *)
      window : (int * int) option;  (** DURING window; [None] = whole timeline. *)
      view : bool;  (** Answered from the workload's view. *)
    }
  | Insert of { text : string; id : int; valid : Interval.t; salary : int }
  | Delete of { text : string; id : int }
  | Ddl of string

let text = function
  | Read { text; _ } | Insert { text; _ } | Delete { text; _ } | Ddl text -> text

type input =
  | Heap of { name : string; rel : Trel.t }
  | Partitioned of { name : string; rel : Trel.t }

type t = {
  name : name;
  inputs : input list;
  sizes : string;  (** One line: relation sizes and statement mix. *)
  writes : bool;  (** Statements modify the input files. *)
  cycle : int;
      (** Statements come in blocks of this many with a fixed mix; a run
          ends on a whole block, so every run has the same mix. *)
  oracle_base : (int * Interval.t * int) array;
      (** The queried relation as (id, valid time, salary) before any
          write: the oracle's own copy of the input. *)
  setup : stmt list;  (** Untimed statements run before the warm-up. *)
  stream : unit -> unit -> stmt option;
      (** A fresh generator of the statements.  The first one is the
          untimed warm-up; the rest are timed. *)
}

(* Independent sub-seeds, one per input of one workload. *)
let sub seed tag = (seed * 7919) + tag

let window_text = function
  | None -> ""
  | Some (a, b) -> Printf.sprintf " DURING [%d,%d]" a b

let agg_text = function
  | Count_star -> "COUNT(*)"
  | Sum -> "SUM(salary)"
  | Avg -> "AVG(salary)"
  | Min -> "MIN(salary)"
  | Max -> "MAX(salary)"

(* The statement's shape, for per-shape latency summaries. *)
let shape = function
  | Read { aggs; window; view; _ } ->
      Printf.sprintf "%s %s"
        (if view then "view read" else "SELECT " ^ String.concat "," (List.map agg_text aggs))
        (match window with None -> "all" | Some _ -> "window")
  | Insert _ -> "INSERT"
  | Delete _ -> "DELETE"
  | Ddl _ -> "DDL"

let read ~rel ?window aggs =
  Read
    {
      text =
        Printf.sprintf "SELECT %s FROM %s%s"
          (String.concat ", " (List.map agg_text aggs))
          rel (window_text window);
      aggs;
      window;
      view = false;
    }

let oracle_of_rel rel =
  Array.mapi
    (fun i tu ->
      match Tuple.value tu 1 with
      | Value.Int s -> (i, Tuple.valid tu, s)
      | _ -> invalid_arg "salary column must be an int")
    (Array.of_list (Trel.tuples rel))

(* A uniform window of [min_width] chronons up to [max_width]. *)
let random_window ?(min_width = 1) prng ~max_width =
  let w = Workload.Prng.int_in prng ~lo:min_width ~hi:max_width in
  let a = Workload.Prng.int_in prng ~lo:0 ~hi:(lifespan - w) in
  (a, a + w - 1)

let scan ~scale ~seed =
  let n = match scale with Full -> 50_000 | Tiny -> 2_000 in
  let rel =
    Workload.Generate.relation
      (Workload.Spec.make ~n ~long_lived_fraction:0.4 ~seed:(sub seed 1) ())
  in
  let prng = Workload.Prng.create ~seed:(sub seed 2) in
  let quarter = lifespan / 4 in
  let a = Workload.Prng.int_in prng ~lo:0 ~hi:(lifespan - quarter) in
  (* The mix sets where p50 and p90 fall.  AVG and MAX are the fastest
     fifth; COUNT and SUM, whose latencies overlap, the middle three
     fifths, with p50 at their centre; COUNT and SUM in one statement the
     slowest fifth, with p90 at its centre.  A quantile on the edge
     between two modes, or in the tail of one, moves with a few samples
     more or less. *)
  let count = read ~rel:"R" [ Count_star ]
  and sum = read ~rel:"R" [ Sum ]
  and both = read ~rel:"R" [ Count_star; Sum ] in
  let shapes =
    [|
      count; sum; read ~rel:"R" ~window:(a, a + quarter - 1) [ Avg ];
      count; both; sum; read ~rel:"R" [ Max ];
      count; sum; both;
    |]
  in
  {
    name = Scan;
    inputs = [ Heap { name = "R"; rel } ];
    sizes =
      Printf.sprintf
        "R: %d tuples, 40%% long-lived, random order, heap file; 1 \
         connection cycling COUNT, SUM, AVG(25%% window), COUNT, \
         COUNT+SUM, SUM, MAX, COUNT, SUM, COUNT+SUM"
        n;
    writes = false;
    cycle = Array.length shapes;
    oracle_base = oracle_of_rel rel;
    setup = [];
    stream =
      (fun () ->
        let k = ref 0 in
        fun () ->
          (* The warm-up is COUNT.  It must not be MAX: the planner keeps
             one observed result size per relation, and MAX's few dozen
             rows would steer the next COUNT to the linked list, which is
             quadratic on this relation. *)
          let i = !k mod Array.length shapes in
          incr k;
          Some shapes.(i));
  }

let mixed_schema =
  Schema.of_pairs [ ("id", Value.Tint); ("salary", Value.Tint) ]

let hot_windows = 32

(* One block of a mixed trace: 4 INSERT, 1 DELETE, 7 view reads and 8
   range aggregates, always in this order.  Every run ends on a whole
   block, so every run has the same mix, and the same share of range
   aggregates pays for re-materializing the relation after a write: 2 of
   the 8 here.  With the order drawn at random that share varied from
   run to run, and p50, which falls at its edge, spread over 80 %. *)
type op = Ins | Del | View | Range

let block =
  [| View; Range; View; Range; View; Range; Ins; Ins; View; Range;
     View; Range; Del; Ins; Ins; View; Range; View; Range; Range |]

let mixed ~scale ~seed =
  let n = match scale with Full -> 50_000 | Tiny -> 2_000 in
  let spec = Workload.Spec.make ~n ~seed:(sub seed 20) () in
  let rel =
    Trel.of_array mixed_schema
      (Array.mapi
         (fun i (iv, s) -> Tuple.make [| Value.Int i; Value.Int s |] iv)
         (Workload.Generate.random_intervals spec))
  in
  let hot =
    let prng = Workload.Prng.create ~seed:(sub seed 30) in
    Array.init hot_windows (fun _ -> random_window prng ~max_width:(lifespan / 100))
  in
  let view_read i =
    let window = hot.(i) in
    Read
      {
        text = "SELECT * FROM V" ^ window_text (Some window);
        aggs = [ Count_star; Sum ];
        window = Some window;
        view = true;
      }
  in
  (* The statements: the warm-up (hot window 0), then whole blocks.
     Inserted tuples are short-lived, as Workload.Generate draws them; a
     delete retires a uniformly chosen live tuple.  Range windows are
     2.5 % of the lifespan wide, at uniform positions.  A range aggregate
     not right after a write then takes 14 to 19 ms on a 2-CPU VM: these
     make up the middle of the latency distribution, from 35 % to 65 %,
     so p50 falls at their centre.  With windows as short as the
     tuples, these took 4 to 7 ms, and p50 moved twice as much as
     throughput with the load on the shared host; with widths drawn at
     random, they overlapped the INSERTs and p50 fell between two
     modes. *)
  let stream () =
    let prng = Workload.Prng.create ~seed:(sub seed 40) in
    (* Live ids, swap-removed on delete; a run inserts far fewer than
       100 000 tuples. *)
    let live = Array.init (n + 100_000) Fun.id in
    let nlive = ref n and next_id = ref n in
    let short () = random_window prng ~max_width:spec.Workload.Spec.short_max in
    let k = ref 0 and warm = ref true in
    let next_op () =
      let op = block.(!k mod Array.length block) in
      incr k;
      op
    in
    fun () ->
      if !warm then begin
        warm := false;
        Some (view_read 0)
      end
      else
        Some
          (match next_op () with
          | Ins ->
              let a, b = short () in
              let valid = Interval.of_ints a b
              and salary = Workload.Prng.int_in prng ~lo:20_000 ~hi:60_000
              and id = !next_id in
              incr next_id;
              live.(!nlive) <- id;
              incr nlive;
              Insert
                {
                  text =
                    Printf.sprintf "INSERT INTO T VALUES (%d, %d)%s" id salary
                      (window_text (Some (a, b)));
                  id;
                  valid;
                  salary;
                }
          | Del ->
              let i = Workload.Prng.int_bounded prng !nlive in
              let id = live.(i) in
              decr nlive;
              live.(i) <- live.(!nlive);
              Delete { text = Printf.sprintf "DELETE FROM T WHERE id = %d" id; id }
          | View -> view_read (Workload.Prng.int_bounded prng hot_windows)
          | Range ->
              let w = lifespan / 40 in
              read ~rel:"T" ~window:(random_window prng ~min_width:w ~max_width:w)
                [ Count_star; Sum ])
  in
  {
    name = Mixed;
    inputs = [ Partitioned { name = "T"; rel } ];
    sizes =
      Printf.sprintf
        "T: %d short-lived tuples, time-partitioned, and its incremental \
         view V; 1 connection; blocks of 4 INSERT, 1 DELETE, 7 view reads \
         over %d hot windows, 8 range aggregates over 2.5%% of the lifespan"
        n hot_windows;
    writes = true;
    cycle = Array.length block;
    oracle_base = oracle_of_rel rel;
    setup =
      (* Reading every hot window once fills the query cache, so the
         timed phase sees the steady state.  Otherwise a short run spends
         a third of its view reads on first-touch misses, and that share,
         and with it p50, moves with the run's speed. *)
      Ddl "CREATE VIEW V AS SELECT COUNT(*), SUM(salary) FROM T"
      :: List.init hot_windows view_read;
    stream;
  }

let make ~scale ~seed = function
  | Scan -> scan ~scale ~seed
  | Mixed -> mixed ~scale ~seed

(* Equi-depth shard boundaries over the tuples' start instants, about
   6250 tuples a shard: below the default split threshold (8192), so the
   load writes every shard once and no write splits one soon after. *)
let boundaries rel =
  let starts =
    List.map (fun tu -> Chronon.to_int (Tuple.start tu)) (Trel.tuples rel)
  in
  Storage.Partition.choose_boundaries
    ~shards:(max 1 (Trel.cardinality rel / 6250))
    ~lifespan:(0, lifespan - 1) starts

(* Write the inputs under [dir] through Storage, as the server will load
   them; returns the server's [-r NAME=PATH] bindings. *)
let write_inputs t dir =
  List.map
    (function
      | Heap { name; rel } ->
          let path = Filename.concat dir (name ^ ".heap") in
          Storage.Heap_file.write_relation ~stats:(Storage.Io_stats.create ())
            path rel;
          (name, path)
      | Partitioned { name; rel } ->
          let path = Filename.concat dir name in
          let p =
            Storage.Partition.create ~boundaries:(boundaries rel) ~dir:path
              (Trel.schema rel)
          in
          Trel.iter (Storage.Partition.insert p) rel;
          Storage.Partition.flush p;
          (name, path))
    t.inputs

(* The input the statements write to: in [mixed], [T]. *)
let written_input t = if t.writes then List.nth_opt t.inputs 0 else None
