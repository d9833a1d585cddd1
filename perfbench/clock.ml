(* The benchmark's one timing source: the kernel's monotonic clock, in
   nanoseconds. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms ns = float_of_int ns /. 1e6

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
