(* A guided tour of the paper, section by section, using the named
   configurations of Definition 2.1 / 4.3 — the exact presentation style
   of the paper, executable.

   Run with: dune exec examples/paper_tour.exe *)

open Vstamp_core

let heading title = Format.printf "@.== %s ==@.@." title

let show c = Format.printf "  %a@." Config.pp c

let () =
  Format.printf "Version Stamps, the guided tour (following the paper)@.";

  (* ---------------------------------------------------------------- *)
  heading "Section 2: causal histories (the global-view model)";
  Format.printf
    "  The oracle: each element maps to its set of update events.@.";
  let gen = Causal_history.Gen.initial in
  let e1, gen = Causal_history.Gen.fresh gen in
  let e2, _gen = Causal_history.Gen.fresh gen in
  let ha = Causal_history.of_events [ e1 ] in
  let hb = Causal_history.of_events [ e1; e2 ] in
  Format.printf "  C(a) = %a, C(b) = %a: a is %s relative to b@."
    Causal_history.pp ha Causal_history.pp hb
    (Relation.to_paper_string (Causal_history.relation ha hb));
  Format.printf
    "  Events carry globally unique identities -- precisely what is@.";
  Format.printf "  unavailable under partitioned operation.@.";

  (* ---------------------------------------------------------------- *)
  heading "Section 3-4: version stamps, no global view";
  Format.printf "  The same Definition 4.3 derivation, by element name:@.@.";
  let c = Config.initial "a1" in
  show c;
  let c = Config.update c ~elem:"a1" ~result:"a2" in
  Format.printf "  after update(a1):@.";
  show c;
  let c = Config.fork c ~elem:"a2" ~left:"b1" ~right:"c1" in
  Format.printf "  after fork(a2) -- purely local, no identifiers served:@.";
  show c;
  let c = Config.fork c ~elem:"b1" ~left:"d1" ~right:"e1" in
  let c = Config.update c ~elem:"c1" ~result:"c2" in
  let c = Config.update c ~elem:"c2" ~result:"c3" in
  Format.printf "  after fork(b1), update(c1) twice (Figure 2's frontier):@.";
  show c;

  Format.printf "@.  Frontier queries (the paper's comparison relation):@.";
  List.iter
    (fun (x, y) ->
      Format.printf "    %s vs %s: %s@." x y
        (Relation.to_paper_string (Config.relation c x y)))
    [ ("d1", "e1"); ("d1", "c3"); ("e1", "c3") ];

  Format.printf "@.  Invariants I1-I3 hold on this configuration: %b@."
    (Invariants.all (Config.frontier c));

  (* ---------------------------------------------------------------- *)
  heading "Section 5: the correspondence theorem, checked live";
  let trace =
    Execution.
      [ Update 0; Fork 0; Fork 0; Update 2; Update 2; Join (1, 2); Join (0, 1) ]
  in
  let stamps = Execution.Run_stamps.run trace in
  let hists = Execution.Run_histories.run trace in
  let module Corr = Correspondence.Make (Stamp) in
  Format.printf
    "  Running Figure 2's trace over stamps and histories in lockstep:@.";
  Format.printf "  Proposition 5.1 (all elements x, all subsets S): %s@."
    (match Corr.set_counterexample stamps hists with
    | None -> "no disagreement found"
    | Some cex -> Format.asprintf "COUNTEREXAMPLE %a" Corr.pp_counterexample cex);

  (* ---------------------------------------------------------------- *)
  heading "Section 6: simplification after joins";
  let c = Config.join c ~left:"e1" ~right:"c3" ~result:"f1" in
  Format.printf "  after join(e1, c3):@.";
  show c;
  let c = Config.join c ~left:"d1" ~right:"f1" ~result:"g1" in
  Format.printf
    "  after join(d1, f1) -- [1|00+01+1] rewrote through [1|0+1] to:@.";
  show c;
  Format.printf
    "@.  The sole survivor is exactly the seed: the id space healed as@.";
  Format.printf "  the frontier narrowed, with zero coordination anywhere.@.";

  (* ---------------------------------------------------------------- *)
  heading "Epilogue: what the execution looked like";
  Format.printf "%s@."
    (Vstamp_sim.Viz.header trace);
  Format.printf "%s" (Vstamp_sim.Viz.draw ~with_stamps:true trace)
