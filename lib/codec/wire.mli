(** Compact binary wire format for stamps, names and version vectors.

    Names serialize as their canonical trie with a prefix-free code
    (1 bit per interior node, 2 per leaf), so the encoding is
    self-delimiting and one-to-one with antichains: decode of encode is
    the identity and re-encoding a decoded value is byte-identical.
    A stamp is its two names back to back.  Version vectors serialize as
    varint (id, counter) pairs for the size comparison of experiment
    E7.

    The trie is derived from the {e antichain}, not from the in-memory
    shape, so the bytes depend only on the name: the list-backed
    specification {!Vstamp_core.Name} would encode the same way. *)

type error =
  | Truncated  (** Input ended mid-value. *)
  | Malformed of string  (** Structurally invalid (bad trie or broken I1). *)

val pp_error : Format.formatter -> error -> unit

(** {1 Names} *)

val name_to_string : Vstamp_core.Name_tree.t -> string

val name_of_string : string -> (Vstamp_core.Name_tree.t, error) result

val name_bits : Vstamp_core.Name_tree.t -> int
(** Exact encoded size in bits (before byte padding). *)

(** {1 Stamps} *)

val stamp_to_string : Vstamp_core.Stamp.t -> string

val stamp_of_string :
  ?validate:bool -> string -> (Vstamp_core.Stamp.t, error) result
(** [validate] (default [true]) rejects stamps violating invariant I1. *)

val stamp_bits : Vstamp_core.Stamp.t -> int
(** Exact encoded size in bits (before byte padding): the stamp's wire
    size, unlike the paper's space metric {!Vstamp_core.Stamp.size_bits}. *)

module Make (_ : Vstamp_core.Backend.S) : sig
  val stamp_to_string : Vstamp_core.Stamp.t -> string

  val stamp_of_string :
    ?validate:bool -> string -> (Vstamp_core.Stamp.t, error) result
end
(** The stamp codec under the functor name the replication benchmark
    ([replbench]) applies; kept for it. *)

(** {1 Version vectors} *)

val vv_to_string : Vstamp_vv.Version_vector.t -> string

val vv_of_string : string -> (Vstamp_vv.Version_vector.t, error) result

val vv_bits : Vstamp_vv.Version_vector.t -> int
