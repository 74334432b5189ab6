(** Signature of {e names}: finite antichains of binary strings.

    Names are the building block of version stamps (Section 4 of the paper).
    The set [N] of finite antichains of {!Bits.t}, ordered by

    {v n1 <= n2  iff  forall r in n1. exists s in n2. r prefix-of s v}

    is a partial order and a join semilattice ([N] is isomorphic to the
    down-sets of strings ordered by inclusion; the antichain holds the
    maximal elements of the down-set it denotes).

    Two implementations satisfy this signature: {!Name_tree} (binary
    tries), the production representation, and {!Name} (sorted lists),
    the executable specification the tests hold it to.  {!Stamp.Make} is
    a functor over it. *)

module type S = sig
  type t
  (** A name: a finite antichain of binary strings. *)

  (** {1 Constructors} *)

  val empty : t
  (** The empty antichain, denoting the empty down-set; bottom of [N]. *)

  val bottom : t
  (** The antichain [{epsilon}].  This is the id of the initial stamp: it
      denotes ownership of the whole identifier space. *)

  val singleton : Bits.t -> t
  (** [singleton s] is the antichain [{s}]. *)

  val of_list : Bits.t list -> t
  (** [of_list ss] is the name denoting the union of the down-sets of [ss],
      i.e. the maximal elements of [ss] (duplicates and proper prefixes of
      other members are dropped). *)

  val of_strings : string list -> t
  (** [of_strings] composes {!of_list} with {!Bits.of_string}; convenience
      for tests and examples. *)

  (** {1 Observers} *)

  val to_list : t -> Bits.t list
  (** Members in shortlex ({!Bits.compare}) order. *)

  val is_empty : t -> bool

  val is_bottom : t -> bool
  (** [is_bottom n] iff [n = {epsilon}]. *)

  val mem : Bits.t -> t -> bool
  (** Exact membership of a string in the antichain. *)

  val cardinal : t -> int
  (** Number of strings in the antichain. *)

  val total_bits : t -> int
  (** Sum of the lengths of all member strings — the paper's space
      metric.  It is not the encoded size ([bottom] is 0 here but 2 bits
      encoded); [Vstamp_codec.Wire.name_bits] and [Wire.stamp_bits] give
      that. *)

  val max_depth : t -> int
  (** Length of the longest member string; [0] for [empty] and [bottom]. *)

  val exists : (Bits.t -> bool) -> t -> bool

  val for_all : (Bits.t -> bool) -> t -> bool

  val fold : (Bits.t -> 'a -> 'a) -> t -> 'a -> 'a
  (** Fold over members in shortlex order. *)

  (** {1 Order and lattice structure} *)

  val equal : t -> t -> bool
  (** Antichain equality (equivalently: equality of denoted down-sets,
      since [N] is a partial order). *)

  val compare : t -> t -> int
  (** An arbitrary total order, for use as container keys.  Compatible with
      [equal], {e not} with {!leq}. *)

  val leq : t -> t -> bool
  (** The partial order of [N]: [leq n1 n2] iff every string of [n1] has an
      extension (or itself) in [n2]. *)

  val join : t -> t -> t
  (** Least upper bound: maximal elements of the union. *)

  val meet : t -> t -> t
  (** Greatest lower bound: maximal common prefixes, i.e. the maximal
      elements of the intersection of the denoted down-sets. *)

  val dominates_string : t -> Bits.t -> bool
  (** [dominates_string n r] iff [{r} <= n], i.e. some member of [n]
      extends [r].  Used by invariant I3. *)

  val incomparable_with : t -> t -> bool
  (** [incomparable_with n1 n2] iff every string of [n1] is prefix-incomparable
      with every string of [n2] — the pairwise condition of invariant I2. *)

  (** {1 Stamp operations on names} *)

  val append_digit : Bits.digit -> t -> t
  (** [append_digit d n] appends [d] on the right of every member: the
      [n.d] lift used by fork.  Preserves antichain-ness. *)

  val reduce_stamp : u:t -> id:t -> t * t
  (** Normal form of the stamp [(u, id)] under the Section 6 rewriting rule

      {v (u, {i; s0, s1}) -> (u', {i; s}) v}

      where [u' = u \ {s0,s1} + {s}] if [s0] or [s1] belongs to [u], and
      [u' = u] otherwise.  The rule is applied to fixpoint; confluence and
      termination make the result unique.  Requires invariant I1
      ([leq u id]); behaviour is unspecified otherwise. *)

  (** {1 Well-formedness and printing} *)

  val well_formed : t -> bool
  (** Check the representation invariants (antichain-ness plus any
      implementation-specific structure).  Always [true] for values built
      through this interface; exposed for tests and decoders. *)

  val pp : Format.formatter -> t -> unit
  (** Prints in the paper's notation: members joined by [+], e.g.
      [0+01+1]; [empty] prints as [0-slash glyph], [bottom] as epsilon. *)

  val to_string : t -> string
  (** [to_string n] is [pp] rendered to a string. *)
end
