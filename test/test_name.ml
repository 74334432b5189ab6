open Vstamp_core

let b = Bits.of_string

(* The same behavioural suite runs against both name implementations;
   anything list-specific or trie-specific follows after the functor. *)
module Suite (N : Name_intf.S) (Info : sig
  val label : string

  val gen : N.t QCheck2.Gen.t
end) =
struct
  let name_t = Alcotest.testable N.pp N.equal

  let n ss = N.of_strings ss

  let check_bool = Alcotest.(check bool)

  let check_int = Alcotest.(check int)

  let test_constants () =
    check_bool "empty is empty" true (N.is_empty N.empty);
    check_bool "bottom not empty" false (N.is_empty N.bottom);
    check_bool "bottom is bottom" true (N.is_bottom N.bottom);
    check_bool "empty not bottom" false (N.is_bottom N.empty);
    check_int "empty cardinal" 0 (N.cardinal N.empty);
    check_int "bottom cardinal" 1 (N.cardinal N.bottom);
    Alcotest.check name_t "bottom = {eps}" N.bottom (n [ "" ])

  let test_of_list_maximal () =
    (* {0, 01} is not a valid antichain: 0 <= 01, keep the maximal 01 *)
    Alcotest.check name_t "drops dominated prefix" (n [ "01" ]) (n [ "0"; "01" ]);
    Alcotest.check name_t "drops duplicates" (n [ "0" ]) (n [ "0"; "0" ]);
    Alcotest.check name_t "keeps incomparables" (n [ "00"; "01" ])
      (n [ "00"; "01" ]);
    Alcotest.check name_t "eps dominated by anything" (n [ "1" ]) (n [ ""; "1" ]);
    Alcotest.check name_t "deep chain" (n [ "0110" ]) (n [ ""; "0"; "01"; "011"; "0110" ])

  let test_mem () =
    check_bool "mem exact" true (N.mem (b "01") (n [ "01"; "1" ]));
    check_bool "mem prefix is not member" false (N.mem (b "0") (n [ "01"; "1" ]));
    check_bool "mem extension is not member" false
      (N.mem (b "011") (n [ "01"; "1" ]));
    check_bool "mem empty" false (N.mem Bits.epsilon N.empty);
    check_bool "mem bottom" true (N.mem Bits.epsilon N.bottom)

  let test_to_list_sorted () =
    Alcotest.(check (list string))
      "shortlex members"
      [ "1"; "00"; "011" ]
      (List.map Bits.to_string (N.to_list (n [ "011"; "1"; "00" ])))

  let test_size_metrics () =
    let x = n [ "00"; "011"; "1" ] in
    check_int "cardinal" 3 (N.cardinal x);
    check_int "total_bits" 6 (N.total_bits x);
    check_int "max_depth" 3 (N.max_depth x);
    check_int "bottom total_bits" 0 (N.total_bits N.bottom);
    check_int "bottom max_depth" 0 (N.max_depth N.bottom)

  (* --- the order: paper examples of Definition 4.1 --- *)

  let test_leq_paper_examples () =
    check_bool "{00,011} <= {000,011,1}" true
      (N.leq (n [ "00"; "011" ]) (n [ "000"; "011"; "1" ]));
    check_bool "{00,10} not <= {000,011,1}" false
      (N.leq (n [ "00"; "10" ]) (n [ "000"; "011"; "1" ]))

  let test_leq_basics () =
    check_bool "empty <= empty" true (N.leq N.empty N.empty);
    check_bool "empty <= bottom" true (N.leq N.empty N.bottom);
    check_bool "bottom not <= empty" false (N.leq N.bottom N.empty);
    check_bool "bottom <= {0,1}" true (N.leq N.bottom (n [ "0"; "1" ]));
    check_bool "bottom <= {0}" true (N.leq N.bottom (n [ "0" ]));
    check_bool "{0,1} not <= bottom" false (N.leq (n [ "0"; "1" ]) N.bottom);
    check_bool "{0} not <= {1}" false (N.leq (n [ "0" ]) (n [ "1" ]))

  let test_join_paper_example () =
    (* {00,011} |_| {000,01,1} = {000,011,1} *)
    Alcotest.check name_t "paper join"
      (n [ "000"; "011"; "1" ])
      (N.join (n [ "00"; "011" ]) (n [ "000"; "01"; "1" ]))

  let test_join_basics () =
    Alcotest.check name_t "join with empty" (n [ "01" ])
      (N.join N.empty (n [ "01" ]));
    Alcotest.check name_t "join bottom with deeper" (n [ "0"; "1" ])
      (N.join N.bottom (n [ "0"; "1" ]));
    Alcotest.check name_t "join disjoint" (n [ "00"; "01"; "1" ])
      (N.join (n [ "00"; "1" ]) (n [ "01" ]));
    Alcotest.check name_t "join idempotent on overlap" (n [ "0"; "1" ])
      (N.join (n [ "0"; "1" ]) (n [ "0" ]))

  let test_meet_basics () =
    Alcotest.check name_t "meet with empty" N.empty (N.meet N.empty (n [ "01" ]));
    Alcotest.check name_t "meet bottom with anything nonempty" N.bottom
      (N.meet N.bottom (n [ "0"; "1" ]));
    Alcotest.check name_t "meet of disjoint branches" N.bottom
      (N.meet (n [ "0" ]) (n [ "1" ]));
    Alcotest.check name_t "meet chain" (n [ "01" ])
      (N.meet (n [ "01" ]) (n [ "010"; "011" ]));
    Alcotest.check name_t "meet mixed"
      (n [ "00"; "01" ])
      (N.meet (n [ "00"; "011" ]) (n [ "000"; "01" ]))

  let test_dominates_string () =
    let x = n [ "00"; "011" ] in
    check_bool "eps dominated" true (N.dominates_string x Bits.epsilon);
    check_bool "0 dominated" true (N.dominates_string x (b "0"));
    check_bool "member dominated" true (N.dominates_string x (b "011"));
    check_bool "extension not dominated" false (N.dominates_string x (b "0111"));
    check_bool "other branch not dominated" false (N.dominates_string x (b "1"));
    check_bool "nothing dominated by empty" false
      (N.dominates_string N.empty Bits.epsilon)

  let test_incomparable_with () =
    check_bool "disjoint branches" true
      (N.incomparable_with (n [ "00" ]) (n [ "01"; "1" ]));
    check_bool "shared member" false
      (N.incomparable_with (n [ "00" ]) (n [ "00" ]));
    check_bool "prefix across" false
      (N.incomparable_with (n [ "0" ]) (n [ "01" ]));
    check_bool "empty incomparable with all" true
      (N.incomparable_with N.empty (n [ "0" ]));
    check_bool "bottom comparable with anything nonempty" false
      (N.incomparable_with N.bottom (n [ "0" ]))

  let test_append_digit () =
    Alcotest.check name_t "append 0"
      (n [ "00"; "10" ])
      (N.append_digit Bits.Zero (n [ "0"; "1" ]));
    Alcotest.check name_t "append 1"
      (n [ "01"; "11" ])
      (N.append_digit Bits.One (n [ "0"; "1" ]));
    Alcotest.check name_t "append on bottom" (n [ "0" ])
      (N.append_digit Bits.Zero N.bottom);
    Alcotest.check name_t "append on empty" N.empty
      (N.append_digit Bits.Zero N.empty)

  (* --- reduction --- *)

  let test_reduce_simple () =
    (* ({eps}, {0,1}) -> ({eps}, {eps}) : siblings collapse, u untouched *)
    let u, id = N.reduce_stamp ~u:N.bottom ~id:(n [ "0"; "1" ]) in
    Alcotest.check name_t "id collapsed" N.bottom id;
    Alcotest.check name_t "u unchanged" N.bottom u

  let test_reduce_updates_u () =
    (* ({0}, {0,1}) -> ({eps}, {eps}) : s0 in u, so u is patched *)
    let u, id = N.reduce_stamp ~u:(n [ "0" ]) ~id:(n [ "0"; "1" ]) in
    Alcotest.check name_t "id collapsed" N.bottom id;
    Alcotest.check name_t "u patched to parent" N.bottom u

  let test_reduce_cascades () =
    (* {00,01,1} -> {0,1} -> {eps} *)
    let u, id = N.reduce_stamp ~u:N.empty ~id:(n [ "00"; "01"; "1" ]) in
    Alcotest.check name_t "cascaded to bottom" N.bottom id;
    Alcotest.check name_t "empty u unchanged" N.empty u

  let test_reduce_cascade_patches_u () =
    (* u = {00, 1}: first collapse 00,01 -> 0 (00 in u), then 0,1 -> eps
       (both now in u) *)
    let u, id = N.reduce_stamp ~u:(n [ "00"; "1" ]) ~id:(n [ "00"; "01"; "1" ]) in
    Alcotest.check name_t "id to bottom" N.bottom id;
    Alcotest.check name_t "u follows" N.bottom u

  let test_reduce_no_siblings () =
    (* {00, 1} has no sibling pair: normal form already *)
    let u, id = N.reduce_stamp ~u:(n [ "1" ]) ~id:(n [ "00"; "1" ]) in
    Alcotest.check name_t "id unchanged" (n [ "00"; "1" ]) id;
    Alcotest.check name_t "u unchanged" (n [ "1" ]) u

  let test_reduce_partial () =
    (* only the 010,011 pair collapses; 000 has no sibling, and the new 01
       has no sibling 00 either *)
    let u, id = N.reduce_stamp ~u:(n [ "011" ]) ~id:(n [ "000"; "010"; "011" ]) in
    Alcotest.check name_t "partially reduced" (n [ "000"; "01" ]) id;
    Alcotest.check name_t "u patched" (n [ "01" ]) u

  let test_reduce_fig4 () =
    (* Figure 4's final join: stamps [1|0+1] come from joining
       [1|00+01+1]-style states; check the exact published collapse
       ({1}, {00,01,1}) -> ({1}, {eps})?  No: 00,01 -> 0 then 0,1 -> eps,
       u = {1} patched at the second step -> ({eps},{eps}). *)
    let u, id = N.reduce_stamp ~u:(n [ "1" ]) ~id:(n [ "00"; "01"; "1" ]) in
    Alcotest.check name_t "id" N.bottom id;
    Alcotest.check name_t "u" N.bottom u

  (* --- well-formedness and printing --- *)

  let test_well_formed () =
    check_bool "empty" true (N.well_formed N.empty);
    check_bool "bottom" true (N.well_formed N.bottom);
    check_bool "constructed" true (N.well_formed (n [ "00"; "011"; "1" ]))

  let test_pp () =
    Alcotest.(check string) "empty" "\xc3\xb8" (N.to_string N.empty);
    Alcotest.(check string) "bottom" "\xce\xb5" (N.to_string N.bottom);
    Alcotest.(check string) "paper style" "00+01+1" (N.to_string (n [ "00"; "01"; "1" ]))

  (* --- properties --- *)

  let gen2 = QCheck2.Gen.pair Info.gen Info.gen

  let gen3 = QCheck2.Gen.triple Info.gen Info.gen Info.gen

  let prop count name gen f = QCheck2.Test.make ~name ~count gen f

  let props =
    [
      prop 300 "leq reflexive" Info.gen (fun x -> N.leq x x);
      prop 300 "leq antisymmetric (partial order, not just pre-order)" gen2
        (fun (x, y) -> (not (N.leq x y && N.leq y x)) || N.equal x y);
      prop 300 "leq transitive" gen3 (fun (x, y, z) ->
          (not (N.leq x y && N.leq y z)) || N.leq x z);
      prop 300 "join is least upper bound" gen3 (fun (x, y, z) ->
          let j = N.join x y in
          N.leq x j && N.leq y j
          && ((not (N.leq x z && N.leq y z)) || N.leq j z));
      prop 300 "join commutative" gen2 (fun (x, y) ->
          N.equal (N.join x y) (N.join y x));
      prop 300 "join associative" gen3 (fun (x, y, z) ->
          N.equal (N.join (N.join x y) z) (N.join x (N.join y z)));
      prop 300 "join idempotent" Info.gen (fun x -> N.equal (N.join x x) x);
      prop 300 "empty is unit of join" Info.gen (fun x ->
          N.equal (N.join x N.empty) x);
      prop 300 "meet is greatest lower bound" gen3 (fun (x, y, z) ->
          let m = N.meet x y in
          N.leq m x && N.leq m y
          && ((not (N.leq z x && N.leq z y)) || N.leq z m));
      prop 300 "meet commutative" gen2 (fun (x, y) ->
          N.equal (N.meet x y) (N.meet y x));
      prop 300 "meet idempotent" Info.gen (fun x -> N.equal (N.meet x x) x);
      prop 300 "absorption" gen2 (fun (x, y) ->
          N.equal (N.join x (N.meet x y)) x && N.equal (N.meet x (N.join x y)) x);
      prop 300 "leq iff join is right arg" gen2 (fun (x, y) ->
          N.leq x y = N.equal (N.join x y) y);
      prop 300 "append_digit well-formed, monotone right, order-reflecting"
        gen2 (fun (x, y) ->
          let x0 = N.append_digit Bits.Zero x
          and y0 = N.append_digit Bits.Zero y in
          N.well_formed x0
          (* fork extends the id, so domination by the id survives *)
          && ((not (N.leq x y)) || N.leq x y0)
          (* and the appended copies never invent an ordering *)
          && ((not (N.leq x0 y0)) || N.leq x y));
      prop 300 "forks of the same name are incomparable (I2 seed)" Info.gen
        (fun x ->
          N.incomparable_with (N.append_digit Bits.Zero x)
            (N.append_digit Bits.One x));
      prop 300 "of_list . to_list = id" Info.gen (fun x ->
          N.equal x (N.of_list (N.to_list x)));
      prop 300 "well_formed on constructed values" gen2 (fun (x, y) ->
          N.well_formed (N.join x y) && N.well_formed (N.meet x y));
      prop 300 "dominates_string agrees with singleton leq" gen2 (fun (x, _) ->
          List.for_all
            (fun s ->
              N.dominates_string x s = N.leq (N.singleton s) x)
            (Bits.all_of_length 3));
      prop 300 "incomparable_with is symmetric and matches definition" gen2
        (fun (x, y) ->
          N.incomparable_with x y = N.incomparable_with y x
          && N.incomparable_with x y
             = List.for_all
                 (fun r ->
                   List.for_all (fun s -> Bits.incomparable r s) (N.to_list y))
                 (N.to_list x));
      prop 300 "reduce_stamp preserves I1 and only shrinks" gen2 (fun (u0, i) ->
          (* force I1 by meeting u with id *)
          let u = N.meet u0 i in
          let u', i' = N.reduce_stamp ~u ~id:i in
          N.well_formed u' && N.well_formed i' && N.leq u' i' && N.leq i' i
          && N.leq u' u);
      prop 300 "reduce_stamp is idempotent" gen2 (fun (u0, i) ->
          let u = N.meet u0 i in
          let u', i' = N.reduce_stamp ~u ~id:i in
          let u'', i'' = N.reduce_stamp ~u:u' ~id:i' in
          N.equal u' u'' && N.equal i' i'');
    ]

  let tests =
    [
      ( Info.label ^ " basics",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of_list keeps maximal" `Quick test_of_list_maximal;
          Alcotest.test_case "mem" `Quick test_mem;
          Alcotest.test_case "to_list sorted" `Quick test_to_list_sorted;
          Alcotest.test_case "size metrics" `Quick test_size_metrics;
        ] );
      ( Info.label ^ " order",
        [
          Alcotest.test_case "paper leq examples" `Quick test_leq_paper_examples;
          Alcotest.test_case "leq basics" `Quick test_leq_basics;
          Alcotest.test_case "paper join example" `Quick test_join_paper_example;
          Alcotest.test_case "join basics" `Quick test_join_basics;
          Alcotest.test_case "meet basics" `Quick test_meet_basics;
          Alcotest.test_case "dominates_string" `Quick test_dominates_string;
          Alcotest.test_case "incomparable_with" `Quick test_incomparable_with;
          Alcotest.test_case "append_digit" `Quick test_append_digit;
        ] );
      ( Info.label ^ " reduction",
        [
          Alcotest.test_case "simple collapse" `Quick test_reduce_simple;
          Alcotest.test_case "u patched" `Quick test_reduce_updates_u;
          Alcotest.test_case "cascades" `Quick test_reduce_cascades;
          Alcotest.test_case "cascade patches u" `Quick
            test_reduce_cascade_patches_u;
          Alcotest.test_case "normal form stays" `Quick test_reduce_no_siblings;
          Alcotest.test_case "partial collapse" `Quick test_reduce_partial;
          Alcotest.test_case "figure 4 collapse" `Quick test_reduce_fig4;
        ] );
      ( Info.label ^ " misc",
        [
          Alcotest.test_case "well_formed" `Quick test_well_formed;
          Alcotest.test_case "printing" `Quick test_pp;
        ] );
      (Info.label ^ " properties", List.map QCheck_alcotest.to_alcotest props);
    ]
end

module List_suite =
  Suite
    (Name)
    (struct
      let label = "list"

      let gen = Vstamp_test_support.Gen.name ()
    end)

module Tree_suite =
  Suite
    (Name_tree)
    (struct
      let label = "tree"

      let gen = Vstamp_test_support.Gen.name_tree ()
    end)

(* --- cross-implementation isomorphism --- *)

let to_tree n = Name_tree.of_list (Name.to_list n)

let cross_props =
  let gen2 =
    QCheck2.Gen.pair
      (Vstamp_test_support.Gen.name ())
      (Vstamp_test_support.Gen.name ())
  in
  [
    QCheck2.Test.make ~name:"to_list . of_list isomorphism" ~count:500
      (Vstamp_test_support.Gen.name ())
      (fun x ->
        Name.equal x (Name.of_list (Name_tree.to_list (to_tree x))));
    QCheck2.Test.make ~name:"leq agrees across implementations" ~count:500 gen2
      (fun (x, y) -> Name.leq x y = Name_tree.leq (to_tree x) (to_tree y));
    QCheck2.Test.make ~name:"join agrees across implementations" ~count:500
      gen2 (fun (x, y) ->
        Name.equal (Name.join x y)
          (Name.of_list (Name_tree.to_list (Name_tree.join (to_tree x) (to_tree y)))));
    QCheck2.Test.make ~name:"meet agrees across implementations" ~count:500
      gen2 (fun (x, y) ->
        Name.equal (Name.meet x y)
          (Name.of_list (Name_tree.to_list (Name_tree.meet (to_tree x) (to_tree y)))));
    QCheck2.Test.make ~name:"reduce agrees across implementations" ~count:500
      gen2 (fun (u0, i) ->
        let u = Name.meet u0 i in
        let lu, li = Name.reduce_stamp ~u ~id:i in
        let tu, ti = Name_tree.reduce_stamp ~u:(to_tree u) ~id:(to_tree i) in
        Name.equal lu (Name.of_list (Name_tree.to_list tu))
        && Name.equal li (Name.of_list (Name_tree.to_list ti)));
    QCheck2.Test.make ~name:"size metrics agree" ~count:500
      (Vstamp_test_support.Gen.name ())
      (fun x ->
        let t = to_tree x in
        Name.cardinal x = Name_tree.cardinal t
        && Name.total_bits x = Name_tree.total_bits t
        && Name.max_depth x = Name_tree.max_depth t);
    QCheck2.Test.make ~name:"incomparable_with agrees across implementations"
      ~count:500 gen2 (fun (x, y) ->
        Name.incomparable_with x y
        = Name_tree.incomparable_with (to_tree x) (to_tree y));
    QCheck2.Test.make ~name:"append_digit agrees across implementations"
      ~count:500 (Vstamp_test_support.Gen.name ()) (fun x ->
        List.for_all
          (fun d ->
            Name.equal (Name.append_digit d x)
              (Name.of_list
                 (Name_tree.to_list (Name_tree.append_digit d (to_tree x)))))
          [ Bits.Zero; Bits.One ]);
  ]

let () =
  Alcotest.run "name"
    (List_suite.tests @ Tree_suite.tests
    @ [ ("cross-implementation", List.map QCheck_alcotest.to_alcotest cross_props) ])
