(** Parser and printer for the paper's textual stamp notation.

    Stamps print and parse as [[u|i]] where each component is either the
    empty-set glyph (or ["0/"]) or a [+]-separated list of binary strings;
    the empty string may be spelled ["e"] or with the epsilon glyph.
    Examples accepted: [[e|e]], [[1|01+1]], [[0/|0]],
    [[ 1 | 00 + 01 + 1 ]].

    Parsing validates antichain-ness of each component and invariant I1
    across them, so every parsed stamp is well-formed. *)

type error = { position : int; message : string }

val pp_error : Format.formatter -> error -> unit

val name_of_string : string -> (Vstamp_core.Name_tree.t, error) result
(** Parse one name, consuming the whole input. *)

val name_to_string : Vstamp_core.Name_tree.t -> string

val stamp_of_string : string -> (Vstamp_core.Stamp.t, error) result
(** Parse one stamp, consuming the whole input. *)

val stamp_to_string : Vstamp_core.Stamp.t -> string
(** Same output as {!Vstamp_core.Stamp.to_string}; round-trips through
    {!stamp_of_string}. *)
