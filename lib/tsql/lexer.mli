(** Hand-written lexer for the TSQL2 subset.

    Keywords are case-insensitive; identifiers keep their case.  String
    literals use single quotes with [''] as the escaped quote.  [--]
    starts a line comment.  Errors carry the byte offset of the
    offending character. *)

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

val token_to_string : token -> string

val tokenize : string -> ((token * int) list, string) result
(** The token stream with byte offsets, ending in [EOF].  [Error msg] on
    an unexpected character or unterminated string. *)
