(** Plain-text table and CSV rendering for benchmark output.

    Every figure harness prints its series through this module so that
    bench output has one consistent, diffable format. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a title row and named columns. *)

val add_row : t -> string list -> unit
(** Append a row.  @raise Invalid_argument if the arity differs from the
    column count. *)

val rows : t -> string list list
(** Rows in insertion order. *)

val pp : Format.formatter -> t -> unit
(** Render with aligned columns and a separator under the header. *)

val to_csv : t -> string
(** Header line then rows, comma-separated.  Values containing commas or
    quotes are quoted. *)

val print : t -> unit
(** [pp] to stdout followed by a blank line. *)
