module type S = sig
  module Name : Name_intf.S with type t = Name_tree.t

  module Stamp : Stamp.S with type name = Name_tree.t and type t = Stamp.t
end

let default_key = "tree"

let default =
  (module struct
    module Name = Name_tree
    module Stamp = Stamp
  end : S)
