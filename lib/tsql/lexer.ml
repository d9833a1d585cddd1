type token =
  | SELECT
  | FROM
  | WHERE
  | GROUP
  | BY
  | AND
  | USING
  | DURING
  | DISTINCT
  | INSTANT
  | SPAN
  | ON
  | ERROR
  | CREATE
  | VIEW
  | AS
  | REFRESH
  | DROP
  | INSERT
  | INTO
  | VALUES
  | DELETE
  | EXPLAIN
  | ANALYZE
  | SHOW
  | STATS
  | TABLE
  | PARTITION
  | PARTITIONS
  | RANGE
  | JOIN
  | TRACE
  | RECORDER
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | COMMA
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | STAR
  | SEMI
  | DOT
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | EOF

let token_to_string = function
  | SELECT -> "SELECT"
  | FROM -> "FROM"
  | WHERE -> "WHERE"
  | GROUP -> "GROUP"
  | BY -> "BY"
  | AND -> "AND"
  | USING -> "USING"
  | DURING -> "DURING"
  | DISTINCT -> "DISTINCT"
  | INSTANT -> "INSTANT"
  | SPAN -> "SPAN"
  | ON -> "ON"
  | ERROR -> "ERROR"
  | CREATE -> "CREATE"
  | VIEW -> "VIEW"
  | AS -> "AS"
  | REFRESH -> "REFRESH"
  | DROP -> "DROP"
  | INSERT -> "INSERT"
  | INTO -> "INTO"
  | VALUES -> "VALUES"
  | DELETE -> "DELETE"
  | EXPLAIN -> "EXPLAIN"
  | ANALYZE -> "ANALYZE"
  | SHOW -> "SHOW"
  | STATS -> "STATS"
  | TABLE -> "TABLE"
  | PARTITION -> "PARTITION"
  | PARTITIONS -> "PARTITIONS"
  | RANGE -> "RANGE"
  | JOIN -> "JOIN"
  | TRACE -> "TRACE"
  | RECORDER -> "RECORDER"
  | IDENT s -> s
  | INT n -> string_of_int n
  | FLOAT f -> Printf.sprintf "%g" f
  | STRING s -> Printf.sprintf "'%s'" s
  | COMMA -> ","
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | STAR -> "*"
  | SEMI -> ";"
  | DOT -> "."
  | EQ -> "="
  | NEQ -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<end of query>"

let keyword_of = function
  | "select" -> Some SELECT
  | "from" -> Some FROM
  | "where" -> Some WHERE
  | "group" -> Some GROUP
  | "by" -> Some BY
  | "and" -> Some AND
  | "using" -> Some USING
  | "during" -> Some DURING
  | "distinct" -> Some DISTINCT
  | "instant" -> Some INSTANT
  | "span" -> Some SPAN
  | "on" -> Some ON
  | "error" -> Some ERROR
  | "create" -> Some CREATE
  | "view" -> Some VIEW
  | "as" -> Some AS
  | "refresh" -> Some REFRESH
  | "drop" -> Some DROP
  | "insert" -> Some INSERT
  | "into" -> Some INTO
  | "values" -> Some VALUES
  | "delete" -> Some DELETE
  | "explain" -> Some EXPLAIN
  | "analyze" -> Some ANALYZE
  | "show" -> Some SHOW
  | "stats" -> Some STATS
  | "table" -> Some TABLE
  | "partition" -> Some PARTITION
  | "partitions" -> Some PARTITIONS
  | "range" -> Some RANGE
  | "join" -> Some JOIN
  | "trace" -> Some TRACE
  | "recorder" -> Some RECORDER
  | _ -> None

let is_ident_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | _ -> false

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit tok pos = tokens := (tok, pos) :: !tokens in
  let rec scan i =
    if i >= n then Ok ()
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1)
      | ',' -> emit COMMA i; scan (i + 1)
      | '(' -> emit LPAREN i; scan (i + 1)
      | ')' -> emit RPAREN i; scan (i + 1)
      | '[' -> emit LBRACKET i; scan (i + 1)
      | ']' -> emit RBRACKET i; scan (i + 1)
      | '*' -> emit STAR i; scan (i + 1)
      | ';' -> emit SEMI i; scan (i + 1)
      | '.' -> emit DOT i; scan (i + 1)
      | '=' -> emit EQ i; scan (i + 1)
      | '<' ->
          if i + 1 < n && input.[i + 1] = '>' then begin
            emit NEQ i; scan (i + 2)
          end
          else if i + 1 < n && input.[i + 1] = '=' then begin
            emit LE i; scan (i + 2)
          end
          else begin emit LT i; scan (i + 1) end
      | '>' ->
          if i + 1 < n && input.[i + 1] = '=' then begin
            emit GE i; scan (i + 2)
          end
          else begin emit GT i; scan (i + 1) end
      | '-' when i + 1 < n && input.[i + 1] = '-' ->
          (* SQL line comment: skip to end of line. *)
          let rec eol j =
            if j < n && input.[j] <> '\n' then eol (j + 1) else j
          in
          scan (eol (i + 2))
      | '\'' -> string_lit (i + 1) i (Buffer.create 16)
      | c when is_digit c -> number i
      | c when is_ident_start c -> ident i
      | c -> Error (Printf.sprintf "unexpected character %C at offset %d" c i)
  and string_lit i start buf =
    if i >= n then
      Error (Printf.sprintf "unterminated string starting at offset %d" start)
    else if input.[i] = '\'' then
      if i + 1 < n && input.[i + 1] = '\'' then begin
        Buffer.add_char buf '\'';
        string_lit (i + 2) start buf
      end
      else begin
        emit (STRING (Buffer.contents buf)) start;
        scan (i + 1)
      end
    else begin
      Buffer.add_char buf input.[i];
      string_lit (i + 1) start buf
    end
  and number start =
    let rec digits i = if i < n && is_digit input.[i] then digits (i + 1) else i in
    let int_end = digits start in
    let is_float =
      int_end < n && input.[int_end] = '.'
      && int_end + 1 < n
      && is_digit input.[int_end + 1]
    in
    if is_float then begin
      let frac_end = digits (int_end + 1) in
      let text = String.sub input start (frac_end - start) in
      emit (FLOAT (float_of_string text)) start;
      scan frac_end
    end
    else begin
      let text = String.sub input start (int_end - start) in
      match int_of_string_opt text with
      | Some v -> emit (INT v) start; scan int_end
      | None -> Error (Printf.sprintf "integer literal too large at offset %d" start)
    end
  and ident start =
    let rec chars i =
      if i < n && is_ident_char input.[i] then chars (i + 1) else i
    in
    let stop = chars start in
    let text = String.sub input start (stop - start) in
    (match keyword_of (String.lowercase_ascii text) with
    | Some kw -> emit kw start
    | None -> emit (IDENT text) start);
    scan stop
  in
  match scan 0 with
  | Ok () ->
      emit EOF n;
      Ok (List.rev !tokens)
  | Error _ as e -> e
