(* Executable checks of the paper's formal results:

   - Invariants I1, I2, I3 hold in every reachable configuration
     (Section 4), with and without Section 6 reduction.
   - Proposition 5.1 / Corollary 5.2: stamp order coincides with causal
     history inclusion on every frontier, for every element and subset.
   - The reduction rule preserves the relation R(V) (Section 6).
   - Mutation tests: a deliberately broken mechanism is caught by the
     oracle, demonstrating the differential harness has teeth. *)

open Vstamp_core
module Corr = Correspondence.Make (Stamp)
module Corr_list = Correspondence.Make (Stamp.Over_list)

let trace_gen ?bias ?max_frontier ?max_len () =
  Vstamp_test_support.Gen.trace ?bias ?max_frontier ?max_len ()

let print = Vstamp_test_support.Gen.trace_print

let prop ?(count = 300) name gen f = QCheck2.Test.make ~name ~count ~print gen f

(* --- invariants --- *)

let invariant_props =
  [
    prop "I1+I2+I3 hold at every step (reducing)" (trace_gen ()) (fun ops ->
        Execution.Run_stamps.run_steps ops |> List.for_all Invariants.all);
    prop "I1+I2+I3 hold at every step (non-reducing)" (trace_gen ())
      (fun ops ->
        Execution.Run_stamps_nonreducing.run_steps ops
        |> List.for_all Invariants.all);
    prop "I1+I2+I3 hold at every step (list implementation)" (trace_gen ())
      (fun ops ->
        Execution.Run_stamps_list.run_steps ops
        |> List.for_all Invariants.Over_list.all);
    prop "check finds no violations on reachable configurations"
      (trace_gen ()) (fun ops ->
        Execution.Run_stamps.run_steps ops
        |> List.for_all (fun f -> Invariants.check f = []));
  ]

(* hand-built violations prove the checkers can fail *)

let n = Name_tree.of_strings

let mk u i = Stamp.make_unchecked ~update:(n u) ~id:(n i)

let test_i1_detects () =
  Alcotest.(check bool) "I1 fails" false (Invariants.i1 (mk [ "0" ] [ "1" ]))

let test_i2_detects () =
  (* two frontier members with comparable id strings *)
  let a = mk [ "" ] [ "0" ] and b = mk [ "" ] [ "01" ] in
  Alcotest.(check bool) "I2 fails" false (Invariants.i2 [ a; b ]);
  Alcotest.(check bool) "violation reported" true
    (List.exists
       (function Invariants.I2 _ -> true | _ -> false)
       (Invariants.check [ a; b ]))

let test_i3_detects () =
  (* x knows update 0 which falls under y's id 0, but y does not know it *)
  let x = mk [ "0" ] [ "1" ] and y = mk [ "" ] [ "0" ] in
  Alcotest.(check bool) "I3 fails" false (Invariants.i3 [ x; y ]);
  Alcotest.(check bool) "violation reported" true
    (List.exists
       (function Invariants.I3 _ -> true | _ -> false)
       (Invariants.check [ x; y ]))

let test_i2_singleton_trivial () =
  Alcotest.(check bool) "single element frontier" true
    (Invariants.i2 [ mk [ "" ] [ "" ] ])

(* --- the main theorem --- *)

let correspondence_props =
  [
    prop "Corollary 5.2: pairwise order agrees with the oracle"
      (trace_gen ()) (fun ops ->
        let stamps = Execution.Run_stamps.run ops in
        let hists = Execution.Run_histories.run ops in
        Corr.pairwise_agree stamps hists);
    prop "Corollary 5.2 on every intermediate frontier" ~count:150
      (trace_gen ~max_len:25 ()) (fun ops ->
        let s_steps = Execution.Run_stamps.run_steps ops in
        let h_steps = Execution.Run_histories.run_steps ops in
        List.for_all2 Corr.pairwise_agree s_steps h_steps);
    prop "Proposition 5.1: set-quantified agreement" ~count:150
      (trace_gen ~max_frontier:7 ()) (fun ops ->
        let stamps = Execution.Run_stamps.run ops in
        let hists = Execution.Run_histories.run ops in
        Corr.set_agree stamps hists);
    prop "Proposition 5.1 for the non-reducing model" ~count:150
      (trace_gen ~max_frontier:7 ()) (fun ops ->
        let stamps = Execution.Run_stamps_nonreducing.run ops in
        let hists = Execution.Run_histories.run ops in
        Corr.set_agree stamps hists);
    prop "Proposition 5.1 for the list implementation" ~count:150
      (trace_gen ~max_frontier:7 ()) (fun ops ->
        let stamps = Execution.Run_stamps_list.run ops in
        let hists = Execution.Run_histories.run ops in
        Corr_list.set_agree stamps hists);
  ]

(* --- Section 6: reduction preserves R(V) --- *)

let reduction_props =
  [
    prop "reducing and non-reducing frontiers induce the same R(V)"
      ~count:150 (trace_gen ~max_frontier:7 ()) (fun ops ->
        let red = Execution.Run_stamps.run ops in
        let raw = Execution.Run_stamps_nonreducing.run ops in
        let n = List.length red in
        List.for_all
          (fun subset ->
            let pick f = List.map (List.nth f) subset in
            List.for_all2
              (fun x x' ->
                Stamp.dominated_by_join x (pick red)
                = Stamp.dominated_by_join x' (pick raw))
              red raw)
          (Corr.subsets n));
    prop "reduced stamps never grow" (trace_gen ()) (fun ops ->
        let red = Execution.Run_stamps.run ops in
        let raw = Execution.Run_stamps_nonreducing.run ops in
        List.for_all2
          (fun r w -> Stamp.size_bits r <= Stamp.size_bits w)
          red raw);
  ]

(* --- confluence: the rewrite order does not matter --- *)

(* An independent reducer that applies the Section 6 rule to a randomly
   chosen applicable sibling pair at each step (seeded), instead of the
   deterministic strategies of the two library implementations.  All
   three must land on the same normal form — an executable check of the
   confluence claim the paper leaves informal. *)
let random_order_reduce seed (u : Name.t) (id : Name.t) =
  let pairs_of id =
    List.filter_map
      (fun s0 ->
        match Bits.sibling s0 with
        | Some s1 when Bits.compare s0 s1 < 0 && Name.mem s1 id -> Some (s0, s1)
        | _ -> None)
      (Name.to_list id)
  in
  let rec go rng u id =
    match pairs_of id with
    | [] -> (u, id)
    | candidates ->
        let (s0, s1), rng = Vstamp_sim.Rng.pick rng candidates in
        let parent = Option.get (Bits.parent s0) in
        let strip n =
          Name.of_list
            (List.filter
               (fun r -> not (Bits.equal r s0 || Bits.equal r s1))
               (Name.to_list n))
        in
        let id' = Name.of_list (parent :: Name.to_list (strip id)) in
        let u' =
          if Name.mem s0 u || Name.mem s1 u then
            Name.of_list (parent :: Name.to_list (strip u))
          else u
        in
        go rng u' id'
  in
  go (Vstamp_sim.Rng.make seed) u id

let prop_confluence =
  QCheck2.Test.make
    ~name:"reduction is confluent: random rewrite orders reach the same normal form"
    ~count:300
    ~print:(fun (ops, seed) ->
      Printf.sprintf "%s / seed %d" (print ops) seed)
    (QCheck2.Gen.pair
       (Vstamp_test_support.Gen.trace ~max_len:25 ())
       QCheck2.Gen.(int_bound 100000))
    (fun (ops, seed) ->
      (* build interesting unreduced stamps from a non-reducing run *)
      Execution.Run_stamps_nonreducing.run ops
      |> List.for_all (fun s ->
             let u = Name_tree.to_name (Stamp.update_name s) in
             let id = Name_tree.to_name (Stamp.id s) in
             let ru, ri = random_order_reduce seed u id in
             let lu, li = Name.reduce_stamp ~u ~id in
             let tu, ti =
               Name_tree.reduce_stamp ~u:(Name_tree.of_name u)
                 ~id:(Name_tree.of_name id)
             in
             Name.equal ru lu && Name.equal ri li
             && Name.equal lu (Name_tree.to_name tu)
             && Name.equal li (Name_tree.to_name ti)))

(* --- mutation tests: break the mechanism, expect the oracle to notice --- *)

(* A broken subject whose update forgets to copy the id: updates become
   invisible, so obsolescence is misreported as equivalence. *)
module Broken_update = struct
  type t = Stamp.t

  type state = unit

  let initial = ((), Stamp.seed)

  let update () x = ((), x)

  let fork () x = ((), Stamp.fork x)

  let join () a b = ((), Stamp.join a b)
end

module Run_broken = Execution.Run (Broken_update)

let test_mutation_caught () =
  (* fork, update one side: a real mechanism must order the two sides *)
  let ops = [ Execution.Fork 0; Update 0 ] in
  let broken = Run_broken.run ops in
  let hists = Execution.Run_histories.run ops in
  Alcotest.(check bool)
    "oracle detects the broken mechanism" false
    (Corr.pairwise_agree broken hists)

(* A broken join that keeps only the left update component. *)
module Broken_join = struct
  type t = Stamp.t

  type state = unit

  let initial = ((), Stamp.seed)

  let update () x = ((), Stamp.update x)

  let fork () x = ((), Stamp.fork x)

  let join () a b =
    ( (),
      Stamp.make_unchecked ~update:(Stamp.update_name a)
        ~id:(Name_tree.join (Stamp.id a) (Stamp.id b)) )
end

module Run_broken_join = Execution.Run (Broken_join)

let test_mutation_join_caught () =
  (* join must combine knowledge: b's update would be forgotten *)
  (* a third replica that never hears of the update makes the forgotten
     knowledge observable on the resulting two-element frontier *)
  let ops = [ Execution.Fork 0; Fork 1; Update 1; Join (0, 1) ] in
  let broken = Run_broken_join.run ops in
  let hists = Execution.Run_histories.run ops in
  Alcotest.(check bool)
    "oracle detects the broken join" false
    (Corr.pairwise_agree broken hists)

let test_counterexample_reporting () =
  let ops = [ Execution.Fork 0; Update 0 ] in
  let broken = Run_broken.run ops in
  let hists = Execution.Run_histories.run ops in
  match Corr.pairwise_counterexample broken hists with
  | None -> Alcotest.fail "expected a counterexample"
  | Some c ->
      let rendered = Format.asprintf "%a" Corr.pp_counterexample c in
      Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_subsets () =
  Alcotest.(check int) "subsets of 3" 7 (List.length (Corr.subsets 3));
  Alcotest.(check int)
    "capped subsets" 6
    (List.length (Corr.subsets ~max_subset_size:2 3));
  Alcotest.(check int) "subsets of 1" 1 (List.length (Corr.subsets 1))

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "theory"
    [
      ("invariants (properties)", qcheck invariant_props);
      ( "invariants (detection)",
        [
          Alcotest.test_case "I1 detects" `Quick test_i1_detects;
          Alcotest.test_case "I2 detects" `Quick test_i2_detects;
          Alcotest.test_case "I3 detects" `Quick test_i3_detects;
          Alcotest.test_case "I2 singleton" `Quick test_i2_singleton_trivial;
        ] );
      ("correspondence (properties)", qcheck correspondence_props);
      ("reduction (properties)", qcheck (reduction_props @ [ prop_confluence ]));
      ( "mutation",
        [
          Alcotest.test_case "broken update caught" `Quick test_mutation_caught;
          Alcotest.test_case "broken join caught" `Quick
            test_mutation_join_caught;
          Alcotest.test_case "counterexample rendering" `Quick
            test_counterexample_reporting;
          Alcotest.test_case "subset enumeration" `Quick test_subsets;
        ] );
    ]
