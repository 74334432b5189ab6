open Vstamp_core

(* The same behavioural suite runs over both stamp instantiations. *)
module Suite
    (N : Name_intf.S)
    (S : Stamp.S with type name = N.t) (Info : sig
      val label : string
    end) =
struct
  let stamp = Alcotest.testable S.pp S.equal

  let rel = Alcotest.testable Relation.pp Relation.equal

  let check_bool = Alcotest.(check bool)

  let n ss = N.of_strings ss

  let mk u i = S.make ~update:(n u) ~id:(n i)

  (* --- construction --- *)

  let test_seed () =
    Alcotest.check stamp "seed is ({eps},{eps})" (mk [ "" ] [ "" ]) S.seed;
    check_bool "seed well formed" true (S.well_formed S.seed);
    check_bool "seed reduced" true (S.is_reduced S.seed)

  let test_make_checks_i1 () =
    Alcotest.check_raises "update must be <= id"
      (Invalid_argument "Stamp.make: update component not dominated by id (I1)")
      (fun () -> ignore (S.make ~update:(n [ "0" ]) ~id:(n [ "1" ])))

  let test_make_unchecked () =
    let bad = S.make_unchecked ~update:(n [ "0" ]) ~id:(n [ "1" ]) in
    check_bool "well_formed detects I1 violation" false (S.well_formed bad)

  (* --- the three operations --- *)

  let test_update () =
    let s = mk [ "" ] [ "01" ] in
    let s' = S.update s in
    Alcotest.check stamp "update copies id" (mk [ "01" ] [ "01" ]) s';
    Alcotest.check stamp "update idempotent" s' (S.update s')

  let test_fork () =
    let l, r = S.fork (mk [ "" ] [ "0" ]) in
    Alcotest.check stamp "left fork" (mk [ "" ] [ "00" ]) l;
    Alcotest.check stamp "right fork" (mk [ "" ] [ "01" ]) r

  let test_fork_multi_string_id () =
    let l, r = S.fork (mk [ "1" ] [ "01"; "1" ]) in
    Alcotest.check stamp "left fork appends to all strings"
      (mk [ "1" ] [ "010"; "10" ]) l;
    Alcotest.check stamp "right fork appends to all strings"
      (mk [ "1" ] [ "011"; "11" ]) r

  let test_join_basic () =
    let a = mk [ "1" ] [ "1" ] and b = mk [ "" ] [ "01" ] in
    let j = S.join ~reduce:false a b in
    Alcotest.check stamp "non-reduced join" (mk [ "1" ] [ "01"; "1" ]) j

  let test_join_commutative () =
    let a = mk [ "1" ] [ "1" ] and b = mk [ "" ] [ "01" ] in
    Alcotest.check stamp "join commutes" (S.join a b) (S.join b a)

  let test_join_reduces () =
    let a = mk [ "0" ] [ "0" ] and b = mk [ "" ] [ "1" ] in
    (* union id {0,1} collapses to {eps}; u = {0} is patched to {eps} *)
    Alcotest.check stamp "join reduces to seed shape" (mk [ "" ] [ "" ])
      (S.join a b);
    Alcotest.check stamp "non-reducing keeps the pair" (mk [ "0" ] [ "0"; "1" ])
      (S.join ~reduce:false a b)

  let test_fork_many () =
    let fleet = S.fork_many S.seed 5 in
    Alcotest.(check int) "five replicas" 5 (List.length fleet);
    (* pairwise distinguishable ids, all equivalent knowledge *)
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i <> j then begin
              check_bool "ids differ" false (N.equal (S.id a) (S.id b));
              Alcotest.check rel "equivalent" Relation.Equal (S.relation a b)
            end)
          fleet)
      fleet;
    (* merging the fleet back restores the seed *)
    (match fleet with
    | x :: rest ->
        Alcotest.check stamp "merge restores seed" S.seed
          (List.fold_left (fun acc s -> S.join acc s) x rest)
    | [] -> Alcotest.fail "unreachable");
    Alcotest.(check int) "singleton" 1 (List.length (S.fork_many S.seed 1));
    check_bool "zero rejected" true
      (try
         ignore (S.fork_many S.seed 0);
         false
       with Invalid_argument _ -> true)

  let test_sync () =
    let a = S.update (mk [ "" ] [ "0" ]) and b = mk [ "" ] [ "1" ] in
    let a', b' = S.sync a b in
    Alcotest.check rel "sync leaves equivalents" Relation.Equal
      (S.relation a' b');
    check_bool "distinct ids" false (N.equal (S.id a') (S.id b'))

  let test_reduce_explicit () =
    let s = S.make ~update:(n [ "1" ]) ~id:(n [ "00"; "01"; "1" ]) in
    Alcotest.check stamp "figure 4 rewrite chain ends at seed" S.seed
      (S.reduce s);
    check_bool "is_reduced false before" false (S.is_reduced s);
    check_bool "is_reduced true after" true (S.is_reduced (S.reduce s))

  (* --- ordering --- *)

  let test_relation_cases () =
    let base = mk [ "" ] [ "0" ] in
    let updated = S.update base in
    Alcotest.check rel "base obsolete vs updated" Relation.Dominated
      (S.relation base updated);
    Alcotest.check rel "updated dominates base" Relation.Dominates
      (S.relation updated base);
    Alcotest.check rel "reflexive equal" Relation.Equal (S.relation base base);
    let other = S.update (mk [ "" ] [ "1" ]) in
    Alcotest.check rel "two updated forks concurrent" Relation.Concurrent
      (S.relation updated other);
    check_bool "inconsistent predicate" true (S.inconsistent updated other);
    check_bool "obsolete predicate" true (S.obsolete base updated);
    check_bool "equivalent predicate" true (S.equivalent base base)

  let test_leq () =
    let a = mk [ "" ] [ "0" ] in
    let b = S.update a in
    check_bool "a <= b" true (S.leq a b);
    check_bool "b not <= a" false (S.leq b a);
    check_bool "leq reflexive" true (S.leq a a)

  let test_dominates_all () =
    let a = S.update (mk [ "" ] [ "00" ]) in
    let b = S.update (mk [ "" ] [ "01" ]) in
    let both = S.join ~reduce:false a b in
    check_bool "join dominates both" true (S.dominates_all both [ a; b ]);
    check_bool "a alone does not dominate both" false
      (S.dominates_all a [ a; b ]);
    check_bool "a dominated by the pair" true (S.dominated_by_join a [ a; b ]);
    check_bool "join dominated by the pair" true
      (S.dominated_by_join both [ a; b ]);
    check_bool "join not dominated by a alone" false
      (S.dominated_by_join both [ a ])

  (* --- size and diagnostics --- *)

  let test_sizes () =
    let s = mk [ "1" ] [ "00"; "01"; "1" ] in
    Alcotest.(check int) "size_bits" 6 (S.size_bits s);
    Alcotest.(check int) "id_width" 3 (S.id_width s);
    Alcotest.(check int) "max_depth" 2 (S.max_depth s);
    Alcotest.(check int) "seed size" 0 (S.size_bits S.seed)

  let test_pp () =
    Alcotest.(check string) "paper notation" "[1|01+1]"
      (S.to_string (mk [ "1" ] [ "01"; "1" ]));
    Alcotest.(check string) "seed" "[\xce\xb5|\xce\xb5]" (S.to_string S.seed)

  let test_has_updates () =
    check_bool "seed carries {eps}" true (S.has_updates S.seed);
    let no_u = S.make ~update:N.empty ~id:(n [ "0" ]) in
    check_bool "empty update" false (S.has_updates no_u)

  (* --- the figure 2 / figure 4 execution, step by step --- *)

  let test_figure4 () =
    (* a1 -u-> a2; fork a2 -> b,c; fork b -> d,e; update c twice;
       f = join e c; g = join d f.  Figure 4 of the paper. *)
    let a1 = S.seed in
    let a2 = S.update a1 in
    Alcotest.check stamp "a2 = [eps|eps]" (mk [ "" ] [ "" ]) a2;
    let b, c = S.fork a2 in
    Alcotest.check stamp "b = [eps|0]" (mk [ "" ] [ "0" ]) b;
    Alcotest.check stamp "c = [eps|1]" (mk [ "" ] [ "1" ]) c;
    let d, e = S.fork b in
    Alcotest.check stamp "d = [eps|00]" (mk [ "" ] [ "00" ]) d;
    Alcotest.check stamp "e = [eps|01]" (mk [ "" ] [ "01" ]) e;
    let c1 = S.update c in
    Alcotest.check stamp "c after update = [1|1]" (mk [ "1" ] [ "1" ]) c1;
    let c2 = S.update c1 in
    Alcotest.check stamp "second update invisible" c1 c2;
    (* frontier checks before the joins *)
    Alcotest.check rel "d obsolete vs c" Relation.Dominated (S.relation d c2);
    Alcotest.check rel "d equivalent to e" Relation.Equal (S.relation d e);
    let f = S.join e c2 in
    Alcotest.check stamp "f = [1|01+1]" (mk [ "1" ] [ "01"; "1" ]) f;
    Alcotest.check rel "d obsolete vs f" Relation.Dominated (S.relation d f);
    let g_raw = S.join ~reduce:false d f in
    Alcotest.check stamp "g unreduced = [1|00+01+1]"
      (S.make ~update:(n [ "1" ]) ~id:(n [ "00"; "01"; "1" ]))
      g_raw;
    let g = S.join d f in
    Alcotest.check stamp "g reduces to [eps|eps]" S.seed g;
    Alcotest.check stamp "explicit reduce agrees" g (S.reduce g_raw)

  let tests =
    [
      ( Info.label ^ " construction",
        [
          Alcotest.test_case "seed" `Quick test_seed;
          Alcotest.test_case "make checks I1" `Quick test_make_checks_i1;
          Alcotest.test_case "make_unchecked" `Quick test_make_unchecked;
        ] );
      ( Info.label ^ " operations",
        [
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "fork" `Quick test_fork;
          Alcotest.test_case "fork multi-string id" `Quick
            test_fork_multi_string_id;
          Alcotest.test_case "join basic" `Quick test_join_basic;
          Alcotest.test_case "join commutative" `Quick test_join_commutative;
          Alcotest.test_case "join reduces" `Quick test_join_reduces;
          Alcotest.test_case "sync" `Quick test_sync;
          Alcotest.test_case "fork_many" `Quick test_fork_many;
          Alcotest.test_case "explicit reduce" `Quick test_reduce_explicit;
        ] );
      ( Info.label ^ " ordering",
        [
          Alcotest.test_case "relation cases" `Quick test_relation_cases;
          Alcotest.test_case "leq" `Quick test_leq;
          Alcotest.test_case "dominates_all / dominated_by_join" `Quick
            test_dominates_all;
        ] );
      ( Info.label ^ " diagnostics",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "printing" `Quick test_pp;
          Alcotest.test_case "has_updates" `Quick test_has_updates;
        ] );
      ( Info.label ^ " paper figures",
        [ Alcotest.test_case "figure 4 run" `Quick test_figure4 ] );
    ]
end

module Tree_suite =
  Suite (Name_tree) (Stamp)
    (struct
      let label = "tree"
    end)

module List_suite =
  Suite (Name) (Stamp.Over_list)
    (struct
      let label = "list"
    end)

(* --- cross-implementation properties over random traces --- *)

let to_list_stamp (s : Stamp.t) : Stamp.Over_list.t =
  Stamp.Over_list.make_unchecked
    ~update:(Name.of_list (Name_tree.to_list (Stamp.update_name s)))
    ~id:(Name.of_list (Name_tree.to_list (Stamp.id s)))

let cross_props =
  let trace_gen = Vstamp_test_support.Gen.trace () in
  [
    QCheck2.Test.make ~name:"tree and list stamps agree along any trace"
      ~count:300 ~print:Vstamp_test_support.Gen.trace_print trace_gen
      (fun ops ->
        let tree_frontier = Execution.Run_stamps.run ops in
        let list_frontier = Execution.Run_stamps_list.run ops in
        List.for_all2
          (fun t l -> Stamp.Over_list.equal (to_list_stamp t) l)
          tree_frontier list_frontier);
    QCheck2.Test.make
      ~name:"reduction commutes with the relation on every frontier pair"
      ~count:300 ~print:Vstamp_test_support.Gen.trace_print trace_gen
      (fun ops ->
        let reduced = Execution.Run_stamps.run ops in
        let raw = Execution.Run_stamps_nonreducing.run ops in
        List.for_all
          (fun (a, a') ->
            List.for_all
              (fun (b, b') ->
                Relation.equal (Stamp.relation a b) (Stamp.relation a' b'))
              (List.combine reduced raw))
          (List.combine reduced raw));
    QCheck2.Test.make ~name:"every stamp along a trace is well-formed and reduced"
      ~count:300 ~print:Vstamp_test_support.Gen.trace_print trace_gen
      (fun ops ->
        Execution.Run_stamps.run_steps ops
        |> List.for_all
             (List.for_all (fun s -> Stamp.well_formed s && Stamp.is_reduced s)));
  ]

let () =
  Alcotest.run "stamp"
    (Tree_suite.tests @ List_suite.tests
    @ [ ("cross/trace properties", List.map QCheck_alcotest.to_alcotest cross_props) ])
