(** A minimal JSON value: parser, printer and accessors.

    Serves the observability layer's machine-generated documents — the
    query journal, metrics export, bench telemetry and the baseline
    perf gate.  Stdlib-only; numbers are floats (everything we
    round-trip fits a double exactly); printing escapes control
    characters and renders integral floats without a fraction. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact, single-line rendering (non-finite numbers become [null]). *)

val of_string : string -> t
(** Parse one JSON document.
    @raise Parse_error on malformed input or trailing garbage. *)

val lines : string -> t list
(** Parse JSON-lines text: one document per non-blank line.
    @raise Parse_error on the first malformed line. *)

val member : string -> t -> t
(** Object field access; [Null] when absent or not an object. *)

val to_float : t -> float
(** [Null] maps to [0.].  @raise Parse_error on non-numbers. *)

val to_int : t -> int

val str : t -> string
(** [Null] maps to [""].  @raise Parse_error on non-strings. *)

val arr : t -> t list
(** [Null] maps to [[]].  @raise Parse_error on non-arrays. *)
