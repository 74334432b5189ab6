(* QCheck generators shared by the property-test suites. *)

open Vstamp_core

let digit : Bits.digit QCheck2.Gen.t =
  QCheck2.Gen.map (fun b -> if b then Bits.One else Bits.Zero) QCheck2.Gen.bool

let bits ?(max_len = 8) () : Bits.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* len = int_bound max_len in
  let+ ds = list_repeat len digit in
  Bits.of_digits ds

(* An arbitrary name: maximal elements of a random string list. *)
let name ?(max_len = 6) ?(max_width = 6) () : Name.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* width = int_bound max_width in
  let+ ss = list_repeat width (bits ~max_len ()) in
  Name.of_list ss

let name_tree ?max_len ?max_width () : Name_tree.t QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun n -> Name_tree.of_list (Name.to_list n))
    (name ?max_len ?max_width ())

(* A valid trace: ops are generated against the frontier size as the
   trace is built, so every prefix is applicable.  [bias] tilts the
   op mix; sizes stay in [1, max_frontier]. *)
type bias = { update_weight : int; fork_weight : int; join_weight : int }

let default_bias = { update_weight = 3; fork_weight = 2; join_weight = 2 }

let trace ?(bias = default_bias) ?(max_frontier = 8) ?(max_len = 40) () :
    Execution.op list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let op_for size =
    let weighted =
      List.concat
        [
          List.init bias.update_weight (fun _ ->
              map (fun i -> Execution.Update (i mod size)) (int_bound (size - 1)));
          (if size < max_frontier then
             List.init bias.fork_weight (fun _ ->
                 map (fun i -> Execution.Fork (i mod size)) (int_bound (size - 1)))
           else []);
          (if size >= 2 then
             List.init bias.join_weight (fun _ ->
                 map2
                   (fun i j ->
                     let i = i mod size in
                     let j = j mod (size - 1) in
                     let j = if j >= i then j + 1 else j in
                     Execution.Join (i, j))
                   (int_bound (size - 1))
                   (int_bound (size - 2)))
           else []);
        ]
    in
    oneof weighted
  in
  let* len = int_bound max_len in
  let rec build size k acc =
    if k = 0 then return (List.rev acc)
    else
      let* op = op_for size in
      build (size + Execution.size_delta op) (k - 1) (op :: acc)
  in
  build 1 len []

let trace_print ops =
  String.concat ";" (List.map Execution.op_to_string ops)
