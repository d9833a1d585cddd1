(* Tests for the live subsystem: incremental materialized views with
   deletes (Live.View), the versioned snapshots they serve, and the
   staleness-tracked query cache (Live.Cache).

   The central property: for any random interleaving of inserts, deletes
   and queries, a live view's snapshot is Timeline.equivalent to a batch
   re-evaluation of the surviving tuples — for all five aggregates, at
   every intermediate version. *)

open Temporal

let c = Chronon.of_int
let iv = Interval.of_ints

let int_timeline =
  Alcotest.testable (Timeline.pp Format.pp_print_int) (Timeline.equal Int.equal)

(* ------------------------------------------------------------------ *)
(* View: unit tests                                                    *)
(* ------------------------------------------------------------------ *)

(* The paper's Employed relation as (interval, salary) writes. *)
let employed =
  [
    (iv 10 15, 1); (iv 7 21, 2); (iv 15 25, 3); (Interval.from (c 22), 4);
  ]

let batch monoid tuples =
  Tempagg.Engine.eval Tempagg.Engine.Sweep monoid (List.to_seq tuples)

let test_insert_matches_batch () =
  let view = Live.View.create Tempagg.Monoid.count in
  List.iter (fun (ivl, v) -> ignore (Live.View.insert view ivl v)) employed;
  Alcotest.(check bool)
    "count timeline" true
    (Timeline.equivalent Int.equal
       (Live.View.snapshot view)
       (batch Tempagg.Monoid.count employed))

let test_delete_subtracts () =
  let view = Live.View.create Tempagg.Monoid.sum_int in
  let handles =
    List.map (fun (ivl, v) -> Live.View.insert view ivl v) employed
  in
  (* Retire the second tuple; an invertible monoid subtracts in place. *)
  Alcotest.(check bool) "deleted" true
    (Live.View.delete view (List.nth handles 1));
  let survivors = [ List.nth employed 0; List.nth employed 2; List.nth employed 3 ] in
  Alcotest.(check bool)
    "sum after delete" true
    (Timeline.equivalent Int.equal
       (Live.View.snapshot view)
       (batch Tempagg.Monoid.sum_int survivors));
  Alcotest.(check int) "no rebuild" 0 (Live.View.stats view).Live.Stats.rebuilds

let test_delete_unknown_handle () =
  let view = Live.View.create Tempagg.Monoid.count in
  let h = Live.View.insert view (iv 0 5) () in
  Alcotest.(check bool) "first" true (Live.View.delete view h);
  Alcotest.(check bool) "second is idempotent" false (Live.View.delete view h);
  Alcotest.(check bool) "unknown" false (Live.View.delete view 999)

let test_min_delete_rebuilds_lazily () =
  let view = Live.View.create Tempagg.Monoid.min_int in
  let handles =
    List.map (fun (ivl, v) -> Live.View.insert view ivl v) employed
  in
  let before = (Live.View.stats view).Live.Stats.rebuilds in
  (* MIN has no inverse: the delete must tombstone, not subtract... *)
  ignore (Live.View.delete view (List.nth handles 0));
  let stats = Live.View.stats view in
  Alcotest.(check int) "deferred" before stats.Live.Stats.rebuilds;
  Alcotest.(check int) "tombstoned" 1 stats.Live.Stats.pending_tombstones;
  (* ...and the next read pays one batch rebuild over the survivors. *)
  let survivors = List.tl employed in
  Alcotest.(check bool)
    "min after rebuild" true
    (Timeline.equivalent (Option.equal Int.equal)
       (Live.View.snapshot view)
       (batch Tempagg.Monoid.min_int survivors));
  let stats = Live.View.stats view in
  Alcotest.(check int) "rebuilt once" (before + 1) stats.Live.Stats.rebuilds;
  Alcotest.(check int) "drained" 0 stats.Live.Stats.pending_tombstones

let test_load_equals_inserts () =
  let a = Live.View.create Tempagg.Monoid.count in
  let handles = Live.View.load a (List.to_seq employed) in
  Alcotest.(check int) "handles" (List.length employed) (List.length handles);
  let b = Live.View.create Tempagg.Monoid.count in
  List.iter (fun (ivl, v) -> ignore (Live.View.insert b ivl v)) employed;
  Alcotest.(check bool)
    "same timeline" true
    (Timeline.equivalent Int.equal (Live.View.snapshot a)
       (Live.View.snapshot b));
  (* Loaded handles are live: deleting one works as usual. *)
  Alcotest.(check bool) "deletable" true
    (Live.View.delete a (List.hd handles));
  Alcotest.(check int) "live tuples" 3 (Live.View.live_tuples a)

let test_snapshots_are_immutable () =
  let view = Live.View.create Tempagg.Monoid.count in
  ignore (Live.View.insert view (iv 0 9) ());
  let snap = Live.View.snapshot view in
  let copy = Timeline.of_list (Timeline.to_list snap) in
  ignore (Live.View.insert view (iv 5 14) ());
  ignore (Live.View.insert view (iv 2 3) ());
  Alcotest.check int_timeline "unchanged by later writes" copy snap

let test_version_and_history () =
  let view = Live.View.create ~history:8 Tempagg.Monoid.count in
  Alcotest.(check int) "fresh" 0 (Live.View.version view);
  let expected = ref [] in
  List.iter
    (fun (ivl, v) ->
      ignore (Live.View.insert view ivl v);
      expected := (Live.View.version view, Live.View.snapshot view) :: !expected)
    employed;
  (* Every retained version still reads exactly as it did when current. *)
  List.iter
    (fun (version, timeline) ->
      match Live.View.snapshot_at view version with
      | None -> Alcotest.failf "version %d evicted" version
      | Some t -> Alcotest.check int_timeline "history" timeline t)
    !expected;
  Alcotest.(check bool)
    "unknown version" true
    (Option.is_none (Live.View.snapshot_at view 999))

let test_history_truncates () =
  let view = Live.View.create ~history:2 Tempagg.Monoid.count in
  for i = 0 to 5 do
    ignore (Live.View.insert view (iv i (i + 1)) ())
  done;
  Alcotest.(check bool)
    "old version gone" true
    (Option.is_none (Live.View.snapshot_at view 1));
  Alcotest.(check bool)
    "current retained" true
    (Option.is_some (Live.View.snapshot_at view (Live.View.version view)))

let test_point_and_range () =
  let view = Live.View.create Tempagg.Monoid.count in
  List.iter (fun (ivl, v) -> ignore (Live.View.insert view ivl v)) employed;
  Alcotest.(check (option int)) "point" (Some 2)
    (Live.View.value_at view (c 10));
  Alcotest.(check (option int)) "empty prefix" (Some 0)
    (Live.View.value_at view (c 0));
  (match Live.View.range view (iv 10 15) with
  | None -> Alcotest.fail "range inside the domain"
  | Some t ->
      Alcotest.check int_timeline "range"
        (Timeline.of_list [ (iv 10 14, 2); (iv 15 15, 3) ])
        t);
  Alcotest.(check bool)
    "range is clipped" true
    (match Live.View.range view (iv 10 15) with
    | Some t -> Interval.equal (Timeline.cover t) (iv 10 15)
    | None -> false)

let test_domain_clips_inserts () =
  let view =
    Live.View.create ~origin:(c 10) ~horizon:(c 20) Tempagg.Monoid.count
  in
  ignore (Live.View.insert view (iv 0 12) ());
  ignore (Live.View.insert view (iv 30 40) ());
  Alcotest.(check int) "outside tuple contributes nothing" 1
    (Live.View.live_tuples view);
  Alcotest.(check (option int)) "clipped in" (Some 1)
    (Live.View.value_at view (c 11));
  Alcotest.(check (option int)) "clipped out" (Some 0)
    (Live.View.value_at view (c 15))

let test_instrument_tracks_segments () =
  let instrument = Tempagg.Instrument.create () in
  let view = Live.View.create ~instrument Tempagg.Monoid.count in
  List.iter (fun (ivl, v) -> ignore (Live.View.insert view ivl v)) employed;
  Alcotest.(check int) "live nodes = segments" (Live.View.segments view)
    (Tempagg.Instrument.live instrument);
  ignore (Live.View.delete view 0);
  Alcotest.(check int) "after delete" (Live.View.segments view)
    (Tempagg.Instrument.live instrument)

(* An attached Guard bounds the materialized state: the instrument's
   live count follows the segment count, so growth past the memory
   budget raises out of the insert. *)
let test_guard_bounds_state () =
  let guard = Tempagg.Guard.create ~memory_budget:256 () in
  let instrument = Tempagg.Instrument.create () in
  Tempagg.Guard.attach guard instrument;
  let view = Live.View.create ~instrument Tempagg.Monoid.count in
  (* Gaps between the tuples keep the segments from coalescing, so the
     materialized state actually grows past the budget. *)
  match
    for i = 0 to 1_999 do
      ignore (Live.View.insert view (iv (3 * i) ((3 * i) + 1)) ())
    done
  with
  | () -> Alcotest.fail "expected the budget to trip"
  | exception Tempagg.Guard.Budget_exceeded _ -> ()

let test_create_validates () =
  Alcotest.(check bool)
    "origin > horizon" true
    (match Live.View.create ~origin:(c 5) ~horizon:(c 1) Tempagg.Monoid.count with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool)
    "negative history" true
    (match Live.View.create ~history:(-1) Tempagg.Monoid.count with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* View: the live-vs-batch equivalence property                        *)
(* ------------------------------------------------------------------ *)

(* A trace op over a small domain: inserts carry (start, length, value);
   deletes pick among the live handles by index; queries force a
   snapshot mid-trace (exercising rebuild timing for min/max). *)
type trace_op =
  | T_insert of int * int * int
  | T_delete of int
  | T_query of int

let print_trace ops =
  String.concat "; "
    (List.map
       (function
         | T_insert (s, l, v) -> Printf.sprintf "ins[%d,%d]=%d" s (s + l) v
         | T_delete i -> Printf.sprintf "del#%d" i
         | T_query t -> Printf.sprintf "q@%d" t)
       ops)

let gen_trace =
  QCheck2.Gen.(
    let op =
      frequency
        [
          ( 5,
            let* s = int_bound 50 in
            let* l = int_bound 20 in
            let* v = int_range 1 100 in
            return (T_insert (s, l, v)) );
          (3, map (fun i -> T_delete i) (int_bound 30));
          (2, map (fun t -> T_query t) (int_bound 70));
        ]
    in
    list_size (int_range 1 30) op)

(* Replays the trace against one view, checking the snapshot against a
   batch Sweep evaluation of the surviving tuples after every op. *)
let check_live_vs_batch (type s r) (monoid : (int, s, r) Tempagg.Monoid.t)
    equal_r ops =
  let view = Live.View.create ~history:64 monoid in
  let live : (Live.View.handle * (Interval.t * int)) list ref = ref [] in
  let versions = ref [] in
  let step op =
    (match op with
    | T_insert (s, l, v) ->
        let ivl = iv s (s + l) in
        let h = Live.View.insert view ivl v in
        live := (h, (ivl, v)) :: !live
    | T_delete i -> (
        match !live with
        | [] -> ()
        | alive ->
            let h, _ = List.nth alive (i mod List.length alive) in
            assert (Live.View.delete view h);
            live := List.remove_assoc h alive)
    | T_query t ->
        let expected =
          Timeline.value_at
            (batch monoid (List.map snd !live))
            (c t)
        in
        if Live.View.value_at view (c t) <> expected then
          Alcotest.failf "point query diverged at %d" t);
    let reference = batch monoid (List.map snd !live) in
    versions := (Live.View.version view, reference) :: !versions;
    Timeline.equivalent equal_r (Live.View.snapshot view) reference
  in
  List.for_all step ops
  (* And every retained intermediate version still matches the batch
     result computed when it was current. *)
  && List.for_all
       (fun (version, reference) ->
         match Live.View.snapshot_at view version with
         | None -> true (* evicted: nothing to check *)
         | Some t -> Timeline.equivalent equal_r t reference)
       !versions

let prop_live_equals_batch =
  QCheck2.Test.make ~count:200 ~print:print_trace
    ~name:"live view = batch re-evaluation (5 aggregates, every version)"
    gen_trace
    (fun ops ->
      check_live_vs_batch Tempagg.Monoid.count Int.equal ops
      && check_live_vs_batch Tempagg.Monoid.sum_int Int.equal ops
      && check_live_vs_batch Tempagg.Monoid.avg_int
           (Option.equal Float.equal) ops
      && check_live_vs_batch Tempagg.Monoid.min_int (Option.equal Int.equal)
           ops
      && check_live_vs_batch Tempagg.Monoid.max_int (Option.equal Int.equal)
           ops)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let stats = Live.Stats.create () in
  let cache = Live.Cache.create stats in
  Alcotest.(check (option int)) "miss" None (Live.Cache.find cache "k");
  Live.Cache.add cache ~key:"k" ~scope:"emp" ~interval:(iv 0 9) ~version:1 42;
  Alcotest.(check (option int)) "hit" (Some 42) (Live.Cache.find cache "k");
  Alcotest.(check int) "hits" 1 stats.Live.Stats.cache_hits;
  Alcotest.(check int) "misses" 1 stats.Live.Stats.cache_misses;
  Alcotest.(check (option int)) "version" (Some 1)
    (Live.Cache.entry_version cache "k")

let test_cache_precise_invalidation () =
  let stats = Live.Stats.create () in
  let cache = Live.Cache.create stats in
  Live.Cache.add cache ~key:"a" ~scope:"emp" ~interval:(iv 0 9) ~version:1 1;
  Live.Cache.add cache ~key:"b" ~scope:"emp" ~interval:(iv 20 29) ~version:1 2;
  Live.Cache.add cache ~key:"c" ~scope:"dept" ~interval:(iv 0 9) ~version:1 3;
  (* A write to emp over [5,7] touches only the overlapping emp entry. *)
  Alcotest.(check int) "dropped" 1
    (Live.Cache.invalidate cache ~scope:"emp" ~interval:(iv 5 7));
  Alcotest.(check (option int)) "overlapping gone" None
    (Live.Cache.find cache "a");
  Alcotest.(check (option int)) "disjoint interval kept" (Some 2)
    (Live.Cache.find cache "b");
  Alcotest.(check (option int)) "other scope kept" (Some 3)
    (Live.Cache.find cache "c");
  Alcotest.(check int) "counted" 1 stats.Live.Stats.cache_invalidations

let test_cache_eviction () =
  let stats = Live.Stats.create () in
  let cache = Live.Cache.create ~capacity:2 stats in
  Live.Cache.add cache ~key:"a" ~scope:"s" ~interval:(iv 0 1) ~version:1 1;
  Live.Cache.add cache ~key:"b" ~scope:"s" ~interval:(iv 0 1) ~version:1 2;
  Live.Cache.add cache ~key:"c" ~scope:"s" ~interval:(iv 0 1) ~version:1 3;
  Alcotest.(check int) "bounded" 2 (Live.Cache.length cache);
  Alcotest.(check int) "evicted" 1 stats.Live.Stats.cache_evictions;
  Alcotest.(check (option int)) "oldest out" None (Live.Cache.find cache "a");
  Alcotest.(check (option int)) "newest in" (Some 3) (Live.Cache.find cache "c")

let test_cache_replace_same_key () =
  let cache = Live.Cache.create ~capacity:2 (Live.Stats.create ()) in
  Live.Cache.add cache ~key:"a" ~scope:"s" ~interval:(iv 0 1) ~version:1 1;
  Live.Cache.add cache ~key:"a" ~scope:"s" ~interval:(iv 0 1) ~version:2 9;
  Alcotest.(check int) "no duplicate" 1 (Live.Cache.length cache);
  Alcotest.(check (option int)) "updated" (Some 9) (Live.Cache.find cache "a");
  Alcotest.(check (option int)) "new version" (Some 2)
    (Live.Cache.entry_version cache "a")

let test_cache_clear () =
  let stats = Live.Stats.create () in
  let cache = Live.Cache.create stats in
  Live.Cache.add cache ~key:"a" ~scope:"s" ~interval:(iv 0 1) ~version:1 1;
  Live.Cache.add cache ~key:"b" ~scope:"s" ~interval:(iv 0 1) ~version:1 2;
  Alcotest.(check int) "clear counts entries" 2 (Live.Cache.clear cache);
  Alcotest.(check int) "empty" 0 (Live.Cache.length cache);
  Alcotest.(check (option int)) "gone" None (Live.Cache.find cache "a")

let test_cache_validates_capacity () =
  Alcotest.(check bool)
    "capacity must be positive" true
    (match Live.Cache.create ~capacity:0 (Live.Stats.create ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_stats_to_string_and_reset () =
  let stats = Live.Stats.create () in
  stats.Live.Stats.inserts <- 3;
  stats.Live.Stats.cache_hits <- 2;
  let s = Live.Stats.to_string stats in
  Alcotest.(check bool) "mentions inserts" true (contains_sub s "inserts=3");
  Alcotest.(check bool) "mentions hits" true (contains_sub s "hits=2");
  Live.Stats.reset stats;
  Alcotest.(check int) "reset" 0 stats.Live.Stats.inserts

let quick name f = Alcotest.test_case name `Quick f
let qtest = QCheck_alcotest.to_alcotest ~long:false

let () =
  Alcotest.run "live"
    [
      ( "view",
        [
          quick "insert matches batch" test_insert_matches_batch;
          quick "delete subtracts (invertible)" test_delete_subtracts;
          quick "delete unknown handle" test_delete_unknown_handle;
          quick "min delete rebuilds lazily" test_min_delete_rebuilds_lazily;
          quick "load = inserts" test_load_equals_inserts;
          quick "snapshots immutable" test_snapshots_are_immutable;
          quick "versions and history" test_version_and_history;
          quick "history truncates" test_history_truncates;
          quick "point and range reads" test_point_and_range;
          quick "domain clips inserts" test_domain_clips_inserts;
          quick "instrument tracks segments" test_instrument_tracks_segments;
          quick "guard bounds the state" test_guard_bounds_state;
          quick "create validates" test_create_validates;
        ] );
      ("equivalence", [ qtest prop_live_equals_batch ]);
      ( "cache",
        [
          quick "hit and miss" test_cache_hit_miss;
          quick "precise invalidation" test_cache_precise_invalidation;
          quick "eviction" test_cache_eviction;
          quick "replace same key" test_cache_replace_same_key;
          quick "clear" test_cache_clear;
          quick "validates capacity" test_cache_validates_capacity;
        ] );
      ("stats", [ quick "to_string and reset" test_stats_to_string_and_reset ]);
    ]
