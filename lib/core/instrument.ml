type t = {
  mutable allocated : int;
  mutable live : int;
  mutable peak_live : int;
  node_bytes : int;
  mutable hook : (t -> unit) option;
}

let create ?(node_bytes = 16) () =
  { allocated = 0; live = 0; peak_live = 0; node_bytes; hook = None }

let alloc t =
  t.allocated <- t.allocated + 1;
  t.live <- t.live + 1;
  if t.live > t.peak_live then t.peak_live <- t.live;
  match t.hook with None -> () | Some f -> f t

let set_hook t hook = t.hook <- hook
let hook t = t.hook

let free t = t.live <- t.live - 1
let free_many t n = t.live <- t.live - n
let allocated t = t.allocated
let live t = t.live
let peak_live t = t.peak_live
let node_bytes t = t.node_bytes
let peak_bytes t = t.peak_live * t.node_bytes

let reset t =
  t.allocated <- 0;
  t.live <- 0;
  t.peak_live <- 0

type snapshot = {
  allocated : int;
  peak_live : int;
  node_bytes : int;
  peak_bytes : int;
}

let snapshot (t : t) =
  {
    allocated = t.allocated;
    peak_live = t.peak_live;
    node_bytes = t.node_bytes;
    peak_bytes = peak_bytes t;
  }

let absorb (t : t) (s : snapshot) =
  t.allocated <- t.allocated + s.allocated;
  t.live <- t.live + s.peak_live;
  if t.live > t.peak_live then t.peak_live <- t.live

let pp_snapshot ppf s =
  Format.fprintf ppf "allocated=%d peak_live=%d peak_bytes=%d" s.allocated
    s.peak_live s.peak_bytes
