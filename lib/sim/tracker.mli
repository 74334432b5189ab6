(** Uniform interface over every update-tracking mechanism.

    The simulator runs the same {!Vstamp_core.Execution.op} traces over
    each mechanism and compares sizes and answers.  [state] threads the
    mechanism's global resource: nothing for version stamps, a fresh-event
    generator for the oracle, an id allocator for vector-based baselines
    (granted here as a perfectly available central counter; its
    {e unavailability} under partition is modelled by {!Partition} and
    {!Vstamp_vv.Id_source}). *)

module type S = sig
  type t

  type state

  val name : string

  val initial : state * t

  val update : state -> t -> state * t

  val fork : state -> t -> state * (t * t)

  val join : state -> t -> t -> state * t

  val leq : t -> t -> bool
  (** The mechanism's frontier order; accuracy is judged against the
      causal-history oracle. *)

  val size_bits : t -> int
  (** Wire-size estimate of one replica's tracking data. *)

  val invariants : t list -> Vstamp_core.Invariants.violation list
  (** Structural self-check of a whole frontier — the mechanism's
      executable invariants (I1–I3 for version stamps), with positional
      witnesses.  [[]] when they hold or when the mechanism has none;
      consumed by the {!Vstamp_obs.Monitor} wiring in [System.run]. *)

  val pp : Format.formatter -> t -> unit
end

type packed = Packed : (module S with type t = 'a and type state = 'b) -> packed

val name : packed -> string

(** One stamp adapter for both name representations: the [Stamps*]
    modules below are instantiations.  [name] is the tracker's display
    name, [reduce] selects the Section 6 normal-form join (the Section 4
    non-reducing model when [false]). *)
module Of_stamp (B : sig
  val name : string

  val reduce : bool

  module Name : Vstamp_core.Name_intf.S

  module Stamp : Vstamp_core.Stamp.S with type name = Name.t
end) : S with type t = B.Stamp.t and type state = unit

module Stamps : S with type t = Vstamp_core.Stamp.t and type state = unit

module Stamps_nonreducing :
  S with type t = Vstamp_core.Stamp.t and type state = unit

module Stamps_list :
  S with type t = Vstamp_core.Stamp.Over_list.t and type state = unit
(** Stamps over the list-backed specification names. *)

module Histories :
  S
    with type t = Vstamp_core.Causal_history.t
     and type state = Vstamp_core.Causal_history.Gen.t

module Vv :
  S with type t = Vstamp_vv.Version_vector.Replica.t and type state = int

module Dvv : S with type t = Vstamp_vv.Dynamic_vv.t and type state = int

module Plausible (_ : sig
  val size : int
end) : S with type t = Vstamp_vv.Plausible_clock.t * int and type state = int

val stamps : packed

val stamps_nonreducing : packed

val stamps_list : packed

val histories : packed

val version_vectors : packed

val dynamic_vv : packed

val plausible : int -> packed
(** Plausible clocks with the given slot count. *)

val all : packed list
(** Every tracker, for sweep experiments. *)

val with_metrics : ?registry:Vstamp_obs.Registry.t -> packed -> packed
(** Same tracker, with every [update]/[fork]/[join]/[leq] timed into
    [tracker_op_ns{tracker=...,op=...}] histograms of the registry
    (default {!Vstamp_obs.Registry.default}). *)
