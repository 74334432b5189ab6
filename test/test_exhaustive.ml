(* Exhaustive verification on small universes.

   Property tests sample; these tests enumerate.  The name universe of
   depth <= d is finite (a(d) = 1 + a(d-1)^2 antichains: 5 at depth 1,
   26 at depth 2, 677 at depth 3), so the lattice laws, the stamp
   invariants and the reduction's properties can be checked on EVERY
   value, and the main theorem on EVERY execution up to a small size. *)

open Vstamp_core

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* all antichains of strings of length <= depth, as tries *)
let rec all_names depth =
  if depth = 0 then [ Name_tree.Empty; Name_tree.Mark ]
  else
    let subs = all_names (depth - 1) in
    Name_tree.Mark
    :: List.concat_map
         (fun l ->
           List.filter_map
             (fun r ->
               match Name_tree.node l r with
               | Name_tree.Empty -> None
               | n -> Some n)
             subs)
         subs
    @ [ Name_tree.Empty ]

let names2 = all_names 2

let names3 = all_names 3

let test_universe_sizes () =
  check_int "depth 0" 2 (List.length (all_names 0));
  check_int "depth 1" 5 (List.length (all_names 1));
  check_int "depth 2" 26 (List.length names2);
  check_int "depth 3" 677 (List.length names3)

let test_all_well_formed () =
  check_bool "every enumerated name is well-formed" true
    (List.for_all Name_tree.well_formed names3)

let test_universe_distinct () =
  let sorted = List.sort_uniq Name_tree.compare names3 in
  check_int "no duplicates" 677 (List.length sorted)

(* --- lattice laws, exhaustively at depth 2 (26^3 = 17 576 triples) --- *)

let test_partial_order_exhaustive () =
  check_bool "reflexive" true (List.for_all (fun x -> Name_tree.leq x x) names3);
  check_bool "antisymmetric" true
    (List.for_all
       (fun x ->
         List.for_all
           (fun y ->
             (not (Name_tree.leq x y && Name_tree.leq y x)) || Name_tree.equal x y)
           names3)
       names3)

let test_transitive_exhaustive_d2 () =
  check_bool "transitive at depth 2" true
    (List.for_all
       (fun x ->
         List.for_all
           (fun y ->
             (not (Name_tree.leq x y))
             || List.for_all
                  (fun z -> (not (Name_tree.leq y z)) || Name_tree.leq x z)
                  names2)
           names2)
       names2)

let test_lattice_laws_exhaustive_d2 () =
  check_bool "join is lub, meet is glb" true
    (List.for_all
       (fun x ->
         List.for_all
           (fun y ->
             let j = Name_tree.join x y and m = Name_tree.meet x y in
             Name_tree.leq x j && Name_tree.leq y j && Name_tree.leq m x
             && Name_tree.leq m y
             && Name_tree.equal (Name_tree.join x y) (Name_tree.join y x)
             && Name_tree.equal (Name_tree.meet x y) (Name_tree.meet y x)
             && Name_tree.equal (Name_tree.join x (Name_tree.meet x y)) x
             && Name_tree.equal (Name_tree.meet x (Name_tree.join x y)) x)
           names2)
       names2)

let test_distributivity_exhaustive_d2 () =
  (* down-set lattices are distributive; verify on all 17 576 triples *)
  check_bool "distributive" true
    (List.for_all
       (fun x ->
         List.for_all
           (fun y ->
             List.for_all
               (fun z ->
                 Name_tree.equal
                   (Name_tree.meet x (Name_tree.join y z))
                   (Name_tree.join (Name_tree.meet x y) (Name_tree.meet x z)))
               names2)
           names2)
       names2)

(* --- reduction, exhaustively over all I1-satisfying stamps at d3 --- *)

let test_reduction_exhaustive () =
  let checked = ref 0 in
  List.iter
    (fun i ->
      List.iter
        (fun u ->
          if Name_tree.leq u i then begin
            incr checked;
            let u', i' = Name_tree.reduce_stamp ~u ~id:i in
            assert (Name_tree.well_formed u' && Name_tree.well_formed i');
            assert (Name_tree.leq u' i');
            (* idempotent *)
            let u'', i'' = Name_tree.reduce_stamp ~u:u' ~id:i' in
            assert (Name_tree.equal u' u'' && Name_tree.equal i' i'');
            (* never grows *)
            assert (Name_tree.total_bits u' <= Name_tree.total_bits u);
            assert (Name_tree.total_bits i' <= Name_tree.total_bits i)
          end)
        names3)
    names3;
  check_bool
    (Printf.sprintf "a meaningful number of I1 pairs checked (%d)" !checked)
    true
    (!checked > 5_000)

let test_reduction_agrees_with_list_exhaustive () =
  let to_list_name n = Name.of_list (Name_tree.to_list n) in
  List.iter
    (fun i ->
      List.iter
        (fun u ->
          if Name_tree.leq u i then begin
            let tu, ti = Name_tree.reduce_stamp ~u ~id:i in
            let lu, li =
              Name.reduce_stamp ~u:(to_list_name u) ~id:(to_list_name i)
            in
            assert (Name.equal lu (to_list_name tu));
            assert (Name.equal li (to_list_name ti))
          end)
        names2)
    names2;
  check_bool "done" true true

(* --- the main theorem on ALL small executions --- *)

(* enumerate every valid trace of exactly [len] ops with frontier <= cap *)
let all_traces ~len ~cap =
  let rec extend size trace k =
    if k = 0 then [ List.rev trace ]
    else
      let updates =
        List.init size (fun i -> (Execution.Update i, size))
      in
      let forks =
        if size < cap then List.init size (fun i -> (Execution.Fork i, size + 1))
        else []
      in
      let joins =
        if size >= 2 then
          List.concat
            (List.init size (fun i ->
                 List.filter_map
                   (fun j -> if i <> j then Some (Execution.Join (i, j), size - 1) else None)
                   (List.init size Fun.id)))
        else []
      in
      List.concat_map
        (fun (op, size') -> extend size' (op :: trace) (k - 1))
        (updates @ forks @ joins)
  in
  extend 1 [] len

module Corr = Correspondence.Make (Stamp)

let check_all_traces len cap =
  let traces = all_traces ~len ~cap in
  List.iter
    (fun ops ->
      let s_steps = Execution.Run_stamps.run_steps ops in
      let h_steps = Execution.Run_histories.run_steps ops in
      List.iter2
        (fun ss hs ->
          match Corr.set_counterexample ss hs with
          | None -> ()
          | Some c ->
              Alcotest.failf "trace %s: %a"
                (Vstamp_test_support.Gen.trace_print ops)
                Corr.pp_counterexample c)
        s_steps h_steps;
      (* invariants at every step too *)
      List.iter
        (fun ss ->
          if not (Invariants.all ss) then
            Alcotest.failf "invariants broken on %s"
              (Vstamp_test_support.Gen.trace_print ops))
        s_steps)
    traces;
  List.length traces

let test_prop51_all_traces_len4 () =
  let n = check_all_traces 4 4 in
  check_bool "checked hundreds of executions" true (n > 300)

let test_prop51_all_traces_len5 () =
  let n = check_all_traces 5 3 in
  check_bool "checked hundreds of executions" true (n > 500)

(* non-reducing model on the same exhaustive trace set *)
let test_prop51_nonreducing_all_traces () =
  let traces = all_traces ~len:4 ~cap:4 in
  List.iter
    (fun ops ->
      let stamps = Execution.Run_stamps_nonreducing.run ops in
      let hists = Execution.Run_histories.run ops in
      match Corr.set_counterexample stamps hists with
      | None -> ()
      | Some c ->
          Alcotest.failf "trace %s: %a"
            (Vstamp_test_support.Gen.trace_print ops)
            Corr.pp_counterexample c)
    traces;
  check_bool "done" true true

(* ITC on the same exhaustive trace set: every length-4 execution agrees
   with the oracle pairwise *)
module Run_itc = Execution.Run (struct
  type t = Vstamp_itc.Itc.t

  type state = unit

  let initial = ((), Vstamp_itc.Itc.seed)

  let update () x = ((), Vstamp_itc.Itc.update x)

  let fork () x = ((), Vstamp_itc.Itc.fork x)

  let join () a b = ((), Vstamp_itc.Itc.join a b)
end)

let test_itc_all_traces_len4 () =
  let traces = all_traces ~len:4 ~cap:4 in
  List.iter
    (fun ops ->
      let stamps = Array.of_list (Run_itc.run ops) in
      let hists = Array.of_list (Execution.Run_histories.run ops) in
      Array.iteri
        (fun x sx ->
          Array.iteri
            (fun y sy ->
              if
                Vstamp_itc.Itc.leq sx sy
                <> Causal_history.subset hists.(x) hists.(y)
              then
                Alcotest.failf "ITC disagrees on %s at (%d,%d)"
                  (Vstamp_test_support.Gen.trace_print ops)
                  x y)
            stamps)
        stamps)
    traces;
  check_bool "done" true true

(* wire codec round trip over the whole depth-3 name universe *)
let test_wire_roundtrip_universe () =
  List.iter
    (fun n ->
      match Vstamp_codec.Wire.name_of_string (Vstamp_codec.Wire.name_to_string n) with
      | Ok n' -> assert (Name_tree.equal n n')
      | Error e ->
          Alcotest.failf "decode failed on %s: %a" (Name_tree.to_string n)
            Vstamp_codec.Wire.pp_error e)
    names3;
  check_bool "all 677 names round trip" true true

(* text codec round trip over the universe *)
let test_text_roundtrip_universe () =
  List.iter
    (fun u ->
      List.iter
        (fun i ->
          if Name_tree.leq u i then
            let s = Stamp.make ~update:u ~id:i in
            match Vstamp_codec.Text.stamp_of_string (Stamp.to_string s) with
            | Ok s' -> assert (Stamp.equal s s')
            | Error e ->
                Alcotest.failf "parse failed on %s: %a" (Stamp.to_string s)
                  Vstamp_codec.Text.pp_error e)
        names2)
    names2;
  check_bool "all depth-2 stamps round trip" true true

let () =
  Alcotest.run "exhaustive"
    [
      ( "universe",
        [
          Alcotest.test_case "sizes" `Quick test_universe_sizes;
          Alcotest.test_case "well-formed" `Quick test_all_well_formed;
          Alcotest.test_case "distinct" `Quick test_universe_distinct;
        ] );
      ( "lattice laws",
        [
          Alcotest.test_case "partial order (d3)" `Quick
            test_partial_order_exhaustive;
          Alcotest.test_case "transitivity (d2)" `Quick
            test_transitive_exhaustive_d2;
          Alcotest.test_case "lub/glb/absorption (d2)" `Quick
            test_lattice_laws_exhaustive_d2;
          Alcotest.test_case "distributivity (d2)" `Quick
            test_distributivity_exhaustive_d2;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "all I1 stamps at d3" `Slow
            test_reduction_exhaustive;
          Alcotest.test_case "agrees with list impl (d2)" `Quick
            test_reduction_agrees_with_list_exhaustive;
        ] );
      ( "main theorem",
        [
          Alcotest.test_case "Prop 5.1 on all len-4 traces" `Slow
            test_prop51_all_traces_len4;
          Alcotest.test_case "Prop 5.1 on all len-5 traces (cap 3)" `Slow
            test_prop51_all_traces_len5;
          Alcotest.test_case "non-reducing model too" `Slow
            test_prop51_nonreducing_all_traces;
          Alcotest.test_case "ITC on all len-4 traces" `Slow
            test_itc_all_traces_len4;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "wire round trip, whole universe" `Quick
            test_wire_roundtrip_universe;
          Alcotest.test_case "text round trip, depth-2 stamps" `Quick
            test_text_roundtrip_universe;
        ] );
    ]
