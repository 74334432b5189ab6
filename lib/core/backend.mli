(** The production name representation, under the signature the
    replication benchmark ([replbench]) instantiates its node and codec
    with.

    Names are {!Name_tree} tries and stamps are {!Stamp}; the sorted-list
    {!Name} survives only as the test oracle.  The signature pins both
    types, so [Vstamp_net.Node.Make] and [Vstamp_codec.Wire.Make] are
    aliases of the plain modules and every stamp they handle is a
    {!Stamp.t}. *)

module type S = sig
  module Name : Name_intf.S with type t = Name_tree.t

  module Stamp : Stamp.S with type name = Name_tree.t and type t = Stamp.t
end

val default_key : string
(** ["tree"]: the representation key every node advertises in its
    handshake. *)

val default : (module S)
