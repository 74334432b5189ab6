(** Queries over a frontier of coexisting replicas.

    A frontier is the set of replicas alive in some reachable
    configuration — the only elements version stamps are designed to
    order (Section 1.2 of the paper).  This module packages the queries a
    replica manager actually asks: who is stale, which pairs genuinely
    conflict, and how to retire obsolete replicas so the Section 6
    reduction can shrink identities. *)

type elt = Stamp.t

type t
(** A frontier.  Order of elements is preserved but not meaningful. *)

val of_list : Stamp.t list -> t

val to_list : t -> Stamp.t list

val initial : t
(** The single seed replica. *)

val size : t -> int

val nth : t -> int -> Stamp.t

val classify : t -> Stamp.t -> Relation.t list
(** Relations of one member against every other member (physical
    identity picks the member out). *)

val dominant : t -> Stamp.t list
(** Members not strictly dominated by anyone — the maximal antichain
    of current versions. *)

val obsolete : t -> Stamp.t list
(** Members some other member strictly dominates: safe to discard. *)

val conflicts : t -> (Stamp.t * Stamp.t) list
(** All mutually inconsistent pairs. *)

val consistent : t -> bool
(** No conflicts. *)

val all_equivalent : t -> bool
(** Everyone has seen the same updates (e.g. right after a global
    sync). *)

val total_bits : t -> int

val prune : t -> t
(** Retire every obsolete member by joining it into a dominant one.
    Knowledge is preserved; identities heal as the frontier narrows. *)

val merge_all : t -> Stamp.t
(** Collapse the whole frontier into one replica.
    @raise Invalid_argument on an empty frontier. *)

val pp : Format.formatter -> t -> unit
