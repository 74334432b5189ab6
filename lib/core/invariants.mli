(** The three structural invariants of version-stamp frontiers.

    Section 4 of the paper proves that every reachable configuration
    satisfies:

    - {b I1} — in every stamp, [update <= id];
    - {b I2} — across any two frontier stamps, every id string of one is
      prefix-incomparable with every id string of the other (frontier ids
      partition the space);
    - {b I3} — for any two frontier stamps [x], [y] and any string [r] of
      [x]'s update component, [{r} <= id(y)] implies [{r} <= update(y)]
      (what [y]'s id region covers of other replicas' knowledge, [y]
      itself knows).

    Section 6 proves the reduction rule preserves all three.  These
    checkers are the executable form of those statements, used by the
    property tests, the simulator's runtime monitors and the
    [vstamp trace] forensics. *)

type violation =
  | I1 of int  (** Frontier position of the offending stamp. *)
  | I2 of int * int  (** Unordered pair of positions with comparable ids. *)
  | I3 of int * int  (** Ordered pair [(x, y)] witnessing the failure. *)

(** The witness type is shared by every instantiation of {!Make} (it
    only mentions frontier positions), so monitors can report violations
    uniformly whichever name representation backs the stamps. *)

val pp_violation : Format.formatter -> violation -> unit

val violation_to_string : violation -> string
(** Compact machine-friendly form: ["I1(3)"], ["I2(0,2)"], ["I3(1,0)"]. *)

module Make (N : Name_intf.S) (S : Stamp.S with type name = N.t) : sig
  val i1 : S.t -> bool
  (** Local invariant of a single stamp. *)

  val i2 : S.t list -> bool
  (** Pairwise id incomparability over a frontier. *)

  val i3 : S.t list -> bool
  (** Knowledge-coverage invariant over a frontier. *)

  val all : S.t list -> bool
  (** Conjunction of I1 on every member, I2 and I3. *)

  val check : S.t list -> violation list
  (** All violations, for diagnostics; empty iff {!all} holds. *)
end

module Over_list : module type of Make (Name) (Stamp.Over_list)
(** Checkers for the list-backed specification stamps. *)

include module type of Make (Name_tree) (Stamp)
(** Checkers for the production (trie-backed) stamps. *)
