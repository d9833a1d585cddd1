exception Syntax_error of string

type state = { tokens : (Lexer.token * int) array; mutable pos : int }

let peek st = fst st.tokens.(st.pos)

(* One token of lookahead past the current one; the stream ends in EOF,
   so peeking past the end just sees EOF again. *)
let peek2 st =
  fst st.tokens.(Stdlib.min (st.pos + 1) (Array.length st.tokens - 1))

let offset st = snd st.tokens.(st.pos)
let advance st = st.pos <- st.pos + 1

let fail st expected =
  raise
    (Syntax_error
       (Printf.sprintf "expected %s but found %s at offset %d" expected
          (Lexer.token_to_string (peek st))
          (offset st)))

let expect st token what =
  if peek st = token then advance st else fail st what

let ident st =
  match peek st with
  | Lexer.IDENT name -> advance st; name
  | _ -> fail st "an identifier"

(* A column reference, optionally qualified: [salary] or [r.salary].
   Qualified forms appear in join queries, where the combined schema
   names columns <relation>.<column>. *)
let column_name st =
  let first = ident st in
  if peek st = Lexer.DOT then begin
    advance st;
    first ^ "." ^ ident st
  end
  else first

let agg_fun_of_ident name =
  match String.lowercase_ascii name with
  | "count" -> Some Ast.Count
  | "sum" -> Some Ast.Sum
  | "avg" -> Some Ast.Avg
  | "min" -> Some Ast.Min
  | "max" -> Some Ast.Max
  | _ -> None

let select_item st =
  match peek st with
  | Lexer.STAR ->
      advance st;
      Ast.Star
  | Lexer.IDENT name when
      (match peek2 st with Lexer.DOT -> true | _ -> false) ->
      advance st;
      advance st;
      Ast.Column (name ^ "." ^ ident st)
  | Lexer.IDENT name -> (
      advance st;
      match (agg_fun_of_ident name, peek st) with
      | Some fn, Lexer.LPAREN ->
          advance st;
          let distinct =
            if peek st = Lexer.DISTINCT then begin
              advance st;
              true
            end
            else false
          in
          let arg =
            match peek st with
            | Lexer.STAR ->
                if fn <> Ast.Count then
                  raise
                    (Syntax_error
                       (Printf.sprintf "%s(*) is not allowed; only COUNT(*)"
                          (Ast.agg_fun_to_string fn)));
                if distinct then
                  raise (Syntax_error "DISTINCT requires a column argument");
                advance st;
                None
            | _ -> Some (column_name st)
          in
          expect st Lexer.RPAREN "')'";
          Ast.Aggregate { fn; arg; distinct }
      | _ -> Ast.Column name)
  | _ -> fail st "a column or aggregate"

let rec comma_separated st parse_one =
  let first = parse_one st in
  if peek st = Lexer.COMMA then begin
    advance st;
    first :: comma_separated st parse_one
  end
  else [ first ]

let literal st =
  match peek st with
  | Lexer.INT n -> advance st; Ast.Lint n
  | Lexer.FLOAT f -> advance st; Ast.Lfloat f
  | Lexer.STRING s -> advance st; Ast.Lstring s
  | _ -> fail st "a literal"

let comparison_op st =
  match peek st with
  | Lexer.EQ -> advance st; Ast.Eq
  | Lexer.NEQ -> advance st; Ast.Neq
  | Lexer.LT -> advance st; Ast.Lt
  | Lexer.LE -> advance st; Ast.Le
  | Lexer.GT -> advance st; Ast.Gt
  | Lexer.GE -> advance st; Ast.Ge
  | _ -> fail st "a comparison operator"

let predicate st =
  let column = column_name st in
  let op = comparison_op st in
  let value = literal st in
  { Ast.column; op; value }

let rec predicates st =
  let first = predicate st in
  if peek st = Lexer.AND then begin
    advance st;
    first :: predicates st
  end
  else [ first ]

(* GROUP BY elements: attribute names, INSTANT, or SPAN n.  At most one
   temporal grouping may appear. *)
let group_elements st =
  let attrs = ref [] and temporal = ref None in
  let set_temporal g =
    match !temporal with
    | None -> temporal := Some g
    | Some _ ->
        raise (Syntax_error "multiple temporal groupings in GROUP BY")
  in
  let element st =
    match peek st with
    | Lexer.INSTANT -> advance st; set_temporal Ast.By_instant
    | Lexer.SPAN -> (
        advance st;
        match peek st with
        | Lexer.INT n ->
            advance st;
            if n <= 0 then raise (Syntax_error "SPAN length must be positive");
            set_temporal (Ast.By_span n)
        | _ -> fail st "a span length")
    | Lexer.IDENT _ -> attrs := column_name st :: !attrs
    | _ -> fail st "a grouping element"
  in
  ignore (comma_separated st (fun st -> element st));
  (List.rev !attrs, Option.value !temporal ~default:Ast.By_instant)

(* USING algo, algo ::= ident ['(' int [',' algo] ')'] — the optional
   second argument nests an inner algorithm, e.g.
   USING parallel(4, ktree(1)).  The clause re-serializes to the string
   form Engine.of_string parses. *)
let rec using_clause st =
  let name = ident st in
  if peek st = Lexer.LPAREN then begin
    advance st;
    match peek st with
    | Lexer.INT n ->
        advance st;
        if peek st = Lexer.COMMA then begin
          advance st;
          let inner = using_clause st in
          expect st Lexer.RPAREN "')'";
          Printf.sprintf "%s(%d,%s)" name n inner
        end
        else begin
          expect st Lexer.RPAREN "')'";
          Printf.sprintf "%s(%d)" name n
        end
    | _ -> fail st "an integer argument"
  end
  else name

let during_clause st =
  expect st Lexer.LBRACKET "'['";
  let w_start =
    match peek st with
    | Lexer.INT n when n >= 0 -> advance st; n
    | _ -> fail st "a non-negative start instant"
  in
  expect st Lexer.COMMA "','";
  let w_stop =
    match peek st with
    | Lexer.INT n -> advance st; Some n
    | Lexer.IDENT ("oo" | "forever") -> advance st; None
    | _ -> fail st "a stop instant or oo"
  in
  (match w_stop with
  | Some stop when stop < w_start ->
      raise (Syntax_error "DURING window stops before it starts")
  | _ -> ());
  expect st Lexer.RBRACKET "']'";
  { Ast.w_start; w_stop }

(* [rel.vt] — the only attribute an ON clause may compare. *)
let vt_ref st =
  let rel = ident st in
  expect st Lexer.DOT "'.'";
  (match peek st with
  | Lexer.IDENT v when String.lowercase_ascii v = "vt" -> advance st
  | _ -> fail st "the valid-time attribute vt");
  rel

(* JOIN right ON a.vt <rel> b.vt.  DURING doubles as the Allen relation
   of the same name, so the keyword token is accepted in predicate
   position.  An ON clause written with the sides reversed
   ([s.vt CONTAINS r.vt] under [FROM r JOIN s]) is normalized to the
   converse predicate on (from, right). *)
let join_clause st ~from =
  let jright = ident st in
  if String.lowercase_ascii jright = String.lowercase_ascii from then
    raise
      (Syntax_error
         (Printf.sprintf
            "self-join of %s: the two sides of a JOIN must be distinct \
             relations"
            from));
  expect st Lexer.ON "ON";
  let lref = vt_ref st in
  let jpred =
    match peek st with
    | Lexer.DURING ->
        advance st;
        Join.Predicate.Allen Temporal.Interval.During
    | Lexer.IDENT name -> (
        advance st;
        match Join.Predicate.of_string name with
        | Ok p -> p
        | Error msg -> raise (Syntax_error msg))
    | _ -> fail st "an Allen relation (OVERLAPS, MEETS, CONTAINS, ...)"
  in
  let rref = vt_ref st in
  let fold = String.lowercase_ascii in
  let jpred =
    if fold lref = fold from && fold rref = fold jright then jpred
    else if fold lref = fold jright && fold rref = fold from then
      Join.Predicate.inverse jpred
    else
      raise
        (Syntax_error
           (Printf.sprintf
              "ON clause must compare %s.vt with %s.vt (found %s.vt and \
               %s.vt)"
              from jright lref rref))
  in
  { Ast.jright; jpred }

let query_body st =
  expect st Lexer.SELECT "SELECT";
  let select = comma_separated st select_item in
  expect st Lexer.FROM "FROM";
  let from = ident st in
  let join =
    if peek st = Lexer.JOIN then begin
      advance st;
      Some (join_clause st ~from)
    end
    else None
  in
  let during =
    if peek st = Lexer.DURING then begin
      advance st;
      Some (during_clause st)
    end
    else None
  in
  let where =
    if peek st = Lexer.WHERE then begin advance st; predicates st end else []
  in
  let group_by, grouping =
    if peek st = Lexer.GROUP then begin
      advance st;
      expect st Lexer.BY "BY";
      group_elements st
    end
    else ([], Ast.By_instant)
  in
  let using =
    if peek st = Lexer.USING then begin
      advance st;
      Some (using_clause st)
    end
    else None
  in
  let on_error =
    if peek st = Lexer.ON then begin
      advance st;
      expect st Lexer.ERROR "ERROR";
      let name = ident st in
      match Tempagg.Engine.on_error_of_string (String.lowercase_ascii name) with
      | Ok policy -> Some policy
      | Error msg -> raise (Syntax_error msg)
    end
    else None
  in
  { Ast.select; from; join; during; where; group_by; grouping; using; on_error }

(* Column types for CREATE TABLE, with the usual SQL synonyms. *)
let column_ty_of_ident name =
  match String.lowercase_ascii name with
  | "int" | "integer" -> Some Relation.Value.Tint
  | "float" | "real" | "double" -> Some Relation.Value.Tfloat
  | "string" | "text" | "varchar" -> Some Relation.Value.Tstring
  | _ -> None

let column_decl st =
  let name = ident st in
  let ty_name = ident st in
  match column_ty_of_ident ty_name with
  | Some ty -> (name, ty)
  | None ->
      raise
        (Syntax_error
           (Printf.sprintf "unknown column type %S (INT, FLOAT or STRING)"
              ty_name))

(* CREATE TABLE name (col TYPE, ...) PARTITION BY RANGE (vt) [(b1, ...)] *)
let create_table st =
  let name = ident st in
  expect st Lexer.LPAREN "'('";
  let columns = comma_separated st column_decl in
  expect st Lexer.RPAREN "')'";
  expect st Lexer.PARTITION "PARTITION BY RANGE (vt)";
  expect st Lexer.BY "BY";
  expect st Lexer.RANGE "RANGE";
  expect st Lexer.LPAREN "'('";
  (match peek st with
  | Lexer.IDENT key when String.lowercase_ascii key = "vt" -> advance st
  | _ -> fail st "the partitioning key vt");
  expect st Lexer.RPAREN "')'";
  let boundaries =
    if peek st = Lexer.LPAREN then begin
      advance st;
      let bs =
        comma_separated st (fun st ->
            match peek st with
            | Lexer.INT n -> advance st; n
            | _ -> fail st "a boundary instant")
      in
      expect st Lexer.RPAREN "')'";
      let rec ascending prev = function
        | [] -> true
        | b :: rest -> b > prev && ascending b rest
      in
      if not (ascending 0 bs) then
        raise
          (Syntax_error
             "partition boundaries must be positive and strictly increasing");
      bs
    end
    else []
  in
  Ast.Create_table { name; columns; boundaries }

let statement st =
  match peek st with
  | Lexer.SELECT -> Ast.Select (query_body st)
  | Lexer.EXPLAIN ->
      advance st;
      expect st Lexer.ANALYZE "ANALYZE";
      Ast.Explain_analyze (query_body st)
  | Lexer.ANALYZE ->
      advance st;
      Ast.Analyze (ident st)
  | Lexer.SHOW -> (
      advance st;
      match peek st with
      | Lexer.STATS ->
          advance st;
          Ast.Show_stats
      | Lexer.PARTITIONS ->
          advance st;
          Ast.Show_partitions
      | Lexer.TRACE ->
          advance st;
          Ast.Show_trace
      | Lexer.RECORDER ->
          advance st;
          Ast.Show_recorder
      | _ -> fail st "STATS, PARTITIONS, TRACE or RECORDER")
  | Lexer.CREATE -> (
      advance st;
      match peek st with
      | Lexer.TABLE ->
          advance st;
          create_table st
      | Lexer.VIEW ->
          advance st;
          let name = ident st in
          expect st Lexer.AS "AS";
          Ast.Create_view { name; definition = query_body st }
      | _ -> fail st "VIEW or TABLE")
  | Lexer.REFRESH ->
      advance st;
      expect st Lexer.VIEW "VIEW";
      Ast.Refresh_view (ident st)
  | Lexer.DROP ->
      advance st;
      expect st Lexer.VIEW "VIEW";
      Ast.Drop_view (ident st)
  | Lexer.INSERT ->
      advance st;
      expect st Lexer.INTO "INTO";
      let relation = ident st in
      expect st Lexer.VALUES "VALUES";
      expect st Lexer.LPAREN "'('";
      let values = comma_separated st literal in
      expect st Lexer.RPAREN "')'";
      expect st Lexer.DURING "DURING";
      let window = during_clause st in
      Ast.Insert_into { relation; values; window }
  | Lexer.DELETE ->
      advance st;
      expect st Lexer.FROM "FROM";
      let relation = ident st in
      let where =
        if peek st = Lexer.WHERE then begin
          advance st;
          predicates st
        end
        else []
      in
      Ast.Delete_from { relation; where }
  | _ ->
      fail st
        "a statement (SELECT, EXPLAIN ANALYZE, CREATE, REFRESH, DROP, INSERT, \
         DELETE, ANALYZE, SHOW STATS, SHOW PARTITIONS, SHOW TRACE, SHOW \
         RECORDER)"

let run_parser text parse_fn =
  match Lexer.tokenize text with
  | Error _ as e -> e
  | Ok tokens -> (
      let st = { tokens = Array.of_list tokens; pos = 0 } in
      match parse_fn st with
      | q -> Ok q
      | exception Syntax_error msg -> Error msg)

let parse text =
  run_parser text (fun st ->
      let q = query_body st in
      if peek st = Lexer.SEMI then advance st;
      expect st Lexer.EOF "end of query";
      q)

let parse_statement text =
  run_parser text (fun st ->
      let s = statement st in
      if peek st = Lexer.SEMI then advance st;
      expect st Lexer.EOF "end of statement";
      s)

let parse_script text =
  run_parser text (fun st ->
      let rec loop acc =
        while peek st = Lexer.SEMI do
          advance st
        done;
        if peek st = Lexer.EOF then List.rev acc
        else begin
          let s = statement st in
          (match peek st with
          | Lexer.SEMI | Lexer.EOF -> ()
          | _ -> fail st "';' between statements");
          loop (s :: acc)
        end
      in
      loop [])
