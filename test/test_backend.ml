(* The Backend.S seam that the replication benchmark instantiates its
   node and codec with: the default is the production tree
   representation, and its types are pinned to Stamp's, so the stamps it
   yields are plain Stamp.t values. *)

open Vstamp_core

let check_bool = Alcotest.(check bool)

let test_first_class_use () =
  (* drive the default through the seam exactly the way the benchmark
     does: unpack it, then apply the node and codec functors *)
  let module B = (val Backend.default) in
  let module C = Vstamp_codec.Wire.Make (B) in
  let s = B.Stamp.update B.Stamp.seed in
  let a, b = B.Stamp.fork s in
  let j = B.Stamp.join (B.Stamp.update a) b in
  check_bool "well-formed after ops" true (B.Stamp.well_formed j);
  check_bool "update visible" true (B.Stamp.has_updates j);
  check_bool "same stamp as Stamp" true
    (Stamp.equal j (Stamp.join (Stamp.update (fst (Stamp.fork s))) b));
  Alcotest.(check string)
    "codec functor is the plain codec" (Vstamp_codec.Wire.stamp_to_string j)
    (C.stamp_to_string j)

let test_default_is_tree () =
  Alcotest.(check string) "default key" "tree" Backend.default_key;
  let module D = (val Backend.default) in
  check_bool "default seed equals Stamp.seed" true
    (Stamp.equal D.Stamp.seed Stamp.seed);
  check_bool "default names are tries" true
    (Name_tree.equal D.Name.bottom Name_tree.bottom)

let () =
  Alcotest.run "backend"
    [
      ( "seam",
        [
          Alcotest.test_case "first-class use" `Quick test_first_class_use;
          Alcotest.test_case "default is tree" `Quick test_default_is_tree;
        ] );
    ]
