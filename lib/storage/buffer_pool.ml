type key = string * int

type entry = { page : bytes; mutable stamp : int }

type t = {
  capacity : int;
  table : (key, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity <= 0 then
    invalid_arg "Buffer_pool.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    clock = 0;
    hits = 0;
    misses = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some entry ->
      entry.stamp <- tick t;
      t.hits <- t.hits + 1;
      Some entry.page
  | None ->
      t.misses <- t.misses + 1;
      None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, stamp) when stamp <= entry.stamp -> acc
        | _ -> Some (key, entry.stamp))
      t.table None
  in
  match victim with
  | Some (key, _) -> Hashtbl.remove t.table key
  | None -> ()

let insert t key page =
  (match Hashtbl.find_opt t.table key with
  | Some _ -> Hashtbl.remove t.table key
  | None -> ());
  if Hashtbl.length t.table >= t.capacity then evict_lru t;
  Hashtbl.add t.table key { page = Bytes.copy page; stamp = tick t }

let invalidate_file t path =
  let keys =
    Hashtbl.fold
      (fun ((file, _) as key) _ acc -> if file = path then key :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) keys

let hits t = t.hits
let misses t = t.misses

let clear t =
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0
