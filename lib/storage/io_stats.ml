type t = {
  mutable reads : int;
  mutable writes : int;
  mutable retries : int;
  mutable corrupt_pages : int;
}

let create () = { reads = 0; writes = 0; retries = 0; corrupt_pages = 0 }
let read_page t = t.reads <- t.reads + 1
let write_page t = t.writes <- t.writes + 1
let retry t = t.retries <- t.retries + 1
let corrupt_page t = t.corrupt_pages <- t.corrupt_pages + 1
let pages_read t = t.reads
let pages_written t = t.writes
let retries t = t.retries
let corrupt_pages t = t.corrupt_pages
let total_pages t = t.reads + t.writes

let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.retries <- 0;
  t.corrupt_pages <- 0

type snapshot = {
  pages_read : int;
  pages_written : int;
  retries : int;
  corrupt_pages : int;
}

let snapshot t =
  {
    pages_read = t.reads;
    pages_written = t.writes;
    retries = t.retries;
    corrupt_pages = t.corrupt_pages;
  }

let pp_snapshot ppf s =
  Format.fprintf ppf "pages_read=%d pages_written=%d" s.pages_read
    s.pages_written;
  if s.retries > 0 then Format.fprintf ppf " retries=%d" s.retries;
  if s.corrupt_pages > 0 then
    Format.fprintf ppf " corrupt_pages=%d" s.corrupt_pages
