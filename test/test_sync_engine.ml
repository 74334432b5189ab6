(* The shared anti-entropy engine: the delta ledger's arithmetic, and
   the headline refactor property — a session split into wire legs
   (offer / wants / fulfil / reconcile / apply, what [Vstamp_net] ships
   between processes) produces stores identical to the in-process
   [Stamped_kv.sync], while never shipping more than a full-state
   exchange of the two replicas. *)

open Vstamp_kvs
module Ledger = Vstamp_sync.Ledger
module Registry = Vstamp_obs.Registry
module Metric = Vstamp_obs.Metric
module St = Vstamp_core.Stamp

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- the ledger --- *)

let test_ledger_tally () =
  let t = Ledger.create () in
  check_int "redundant empty" 0 (Ledger.redundant t);
  Alcotest.(check (float 0.)) "efficiency empty" 1.0 (Ledger.efficiency t);
  Ledger.add t ~shipped:10 ~minimal:4;
  Ledger.add t ~shipped:6 ~minimal:6;
  check_int "shipped" 16 t.Ledger.shipped;
  check_int "minimal" 10 t.Ledger.minimal;
  check_int "entries" 2 t.Ledger.entries;
  check_int "redundant" 6 (Ledger.redundant t);
  Alcotest.(check (float 1e-9))
    "efficiency" (10. /. 16.) (Ledger.efficiency t)

let test_ledger_counters () =
  let r = Registry.create () in
  let c = Ledger.counters ~registry:r ~prefix:"x_" () in
  Ledger.round c;
  Ledger.round c;
  Ledger.account c ~shipped:8 ~minimal:2;
  check_int "rounds" 2 (Metric.count (Registry.counter r "x_rounds_total"));
  check_int "shipped" 8 (Metric.count (Registry.counter r "x_shipped_bytes_total"));
  check_int "minimal" 2 (Metric.count (Registry.counter r "x_minimal_bytes_total"));
  check_int "redundant" 6
    (Metric.count (Registry.counter r "x_redundant_bytes_total"));
  Alcotest.(check (float 1e-9))
    "efficiency gauge" 0.25
    (Metric.value (Registry.gauge r "x_delta_efficiency"))

let test_ledger_publisher () =
  let r = Registry.create () in
  let p = Ledger.publisher ~registry:r ~prefix:"y_" () in
  let t = Ledger.create () in
  Ledger.add t ~shipped:10 ~minimal:4;
  Ledger.publish p t;
  Ledger.add t ~shipped:5 ~minimal:5;
  Ledger.publish p t;
  (* growth-only publication: totals equal the tally, not double *)
  check_int "shipped" 15 (Metric.count (Registry.counter r "y_shipped_bytes_total"));
  check_int "minimal" 9 (Metric.count (Registry.counter r "y_minimal_bytes_total"));
  check_int "redundant" 6
    (Metric.count (Registry.counter r "y_redundant_bytes_total"))

(* --- wire legs vs in-process session --- *)

module KV = Stamped_kv

let put s (k, v) = KV.put s ~key:k v

let build stores = List.fold_left put KV.empty stores

(* Observable store state: keys, candidate sets, and the exact stamps. *)
let state s =
  List.map (fun k -> (k, List.sort compare (KV.get s k), KV.stamp s k)) (KV.keys s)

let same_store what x y =
  Alcotest.(check bool) what true (state x = state y)

let wire_session a b =
  let frontier = KV.offer a in
  let wanted = KV.wants b frontier in
  let items = KV.fulfil a wanted in
  let tally = Ledger.create () in
  let b', results = KV.reconcile ~tally b frontier items in
  let a' = KV.apply a results in
  (a', b', tally)

let meta_bytes st = (St.size_bits st + 7) / 8

(* What a naive exchange ships: both replicas' entire stores — every
   stamp and every candidate value, both directions. *)
let full_state_bytes s =
  List.fold_left
    (fun acc k ->
      let m = match KV.stamp s k with Some st -> meta_bytes st | None -> 0 in
      let p =
        List.fold_left (fun n v -> n + String.length v) 0 (KV.get s k)
      in
      acc + m + p)
    0 (KV.keys s)

let build_on s ops = List.fold_left put s ops

let divergent_pair () =
  let base = build [ ("k1", "v1"); ("k2", "v2"); ("k3", "v3") ] in
  let a, b = KV.sync base KV.empty in
  (* diverge: overwrite on both sides, plus disjoint new keys *)
  let a = build_on a [ ("k1", "a-side"); ("only-a", "x") ]
  and b = build_on b [ ("k1", "b-side"); ("k2", "newer"); ("only-b", "y") ] in
  (a, b)

let test_wire_equals_inprocess () =
  let a, b = divergent_pair () in
  let a1, b1 = KV.sync a b in
  let a2, b2, tally = wire_session a b in
  same_store "initiator stores agree" a1 a2;
  same_store "responder stores agree" b1 b2;
  check_bool "converged" true (KV.converged a2 b2);
  check_bool "shipped bounded by full state" true
    (tally.Ledger.shipped <= full_state_bytes a + full_state_bytes b);
  check_bool "minimal <= shipped" true
    (tally.Ledger.minimal <= tally.Ledger.shipped)

let test_wire_second_round_ships_no_payload () =
  let a, b = divergent_pair () in
  let a, b, _ = wire_session a b in
  let a', b', tally = wire_session a b in
  same_store "initiator stable" a a';
  same_store "responder stable" b b';
  (* everything equal with matching digests: the minimal delta is 0 *)
  check_int "minimal second round" 0 tally.Ledger.minimal

(* --- the qcheck equivalence property --- *)

let gen_key = QCheck2.Gen.oneofl [ "alpha"; "beta"; "gamma"; "delta"; "eps" ]

let gen_op =
  QCheck2.Gen.(pair gen_key (string_size ~gen:printable (int_bound 8)))

let gen_scenario =
  QCheck2.Gen.(
    triple
      (list_size (int_bound 6) gen_op)
      (list_size (int_bound 6) gen_op)
      (list_size (int_bound 6) gen_op))

let print_scenario (base, ops_a, ops_b) =
  let ops l =
    "[" ^ String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "]"
  in
  Printf.sprintf "base %s a %s b %s" (ops base) (ops ops_a) (ops ops_b)

let prop_wire_equivalence =
  QCheck2.Test.make ~name:"wire legs = in-process session, shipped bounded"
    ~count:500 ~print:print_scenario gen_scenario (fun (base, ops_a, ops_b) ->
      let s0 = build base in
      let a0, b0 = KV.sync s0 KV.empty in
      let a = build_on a0 ops_a and b = build_on b0 ops_b in
      let a1, b1 = KV.sync a b in
      let a2, b2, tally = wire_session a b in
      state a1 = state a2
      && state b1 = state b2
      && KV.converged a2 b2
      && tally.Ledger.shipped <= full_state_bytes a + full_state_bytes b
      && tally.Ledger.minimal <= tally.Ledger.shipped)

let prop_wire_idempotent =
  QCheck2.Test.make ~name:"second wire round is a fixpoint with 0 minimal"
    ~count:200 ~print:print_scenario gen_scenario (fun (base, ops_a, ops_b) ->
      let s0 = build base in
      let a0, b0 = KV.sync s0 KV.empty in
      let a = build_on a0 ops_a and b = build_on b0 ops_b in
      let a, b, _ = wire_session a b in
      let a', b', tally = wire_session a b in
      state a = state a' && state b = state b' && tally.Ledger.minimal = 0)

let () =
  Alcotest.run "sync engine"
    [
      ( "ledger",
        [
          Alcotest.test_case "tally arithmetic" `Quick test_ledger_tally;
          Alcotest.test_case "registry counters" `Quick test_ledger_counters;
          Alcotest.test_case "growth publisher" `Quick test_ledger_publisher;
        ] );
      ( "wire legs",
        [
          Alcotest.test_case "equals in-process sync" `Quick
            test_wire_equals_inprocess;
          Alcotest.test_case "second round ships nothing" `Quick
            test_wire_second_round_ships_no_payload;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_wire_equivalence; prop_wire_idempotent ] );
    ]
