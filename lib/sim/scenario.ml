open Vstamp_core
open Vstamp_vv

(* --- Figure 1: three fixed replicas tracked by version vectors --- *)

module Fig1 = struct
  type step = { replica : string; vector : Version_vector.t }

  type t = {
    timeline : (string * step list) list;
        (* per replica, its successive vector values *)
    final : (string * Version_vector.t) list;
    relations : (string * string * Relation.t) list;
  }

  let run () =
    let a0 = Version_vector.Replica.create ~id:0 in
    let b0 = Version_vector.Replica.create ~id:1 in
    let c0 = Version_vector.Replica.create ~id:2 in
    (* A updates; A's state reaches B; A updates again;
       C updates; B and C synchronize. *)
    let a1 = Version_vector.Replica.update a0 in
    let a1', b1 = Version_vector.Replica.sync a1 b0 in
    let a2 = Version_vector.Replica.update a1' in
    let c1 = Version_vector.Replica.update c0 in
    let b2, c2 = Version_vector.Replica.sync b1 c1 in
    let v = Version_vector.Replica.vector in
    let step r x = { replica = r; vector = v x } in
    {
      timeline =
        [
          ("A", [ step "A" a0; step "A" a1; step "A" a1'; step "A" a2 ]);
          ("B", [ step "B" b0; step "B" b1; step "B" b2 ]);
          ("C", [ step "C" c0; step "C" c1; step "C" c2 ]);
        ];
      final = [ ("A", v a2); ("B", v b2); ("C", v c2) ];
      relations =
        [
          ("A", "B", Version_vector.Replica.relation a2 b2);
          ("B", "C", Version_vector.Replica.relation b2 c2);
          ("A", "C", Version_vector.Replica.relation a2 c2);
        ];
    }

  (* the vector values printed in the paper's figure, as [A;B;C] counters *)
  let expected_final = [ ("A", [ 2; 0; 0 ]); ("B", [ 1; 0; 1 ]); ("C", [ 1; 0; 1 ]) ]

  let matches_paper t =
    List.for_all2
      (fun (r, vec) (r', counters) ->
        r = r'
        && List.for_all2
             (fun id c -> Version_vector.get vec id = c)
             [ 0; 1; 2 ] counters)
      t.final expected_final
end

(* --- Figures 2 and 4: fork/join evolution and its version stamps --- *)

module Fig4 = struct
  (* a1 -u-> a2; a2 forks into b1 (id 0) and c1 (id 1); b1 forks into
     d1 (id 00) and e1 (id 01); c updates twice; f1 = join(e1, c);
     g1 = join(d1, f1). *)
  let trace =
    Execution.
      [ Update 0; Fork 0; Fork 0; Update 2; Update 2; Join (1, 2); Join (0, 1) ]

  type t = {
    named_steps : (string * Stamp.t) list;
    g_unreduced : Stamp.t;
    g_reduction_chain : Stamp.t list;
    final : Stamp.t;
  }

  let run () =
    let a1 = Stamp.seed in
    let a2 = Stamp.update a1 in
    let b1, c1 = Stamp.fork a2 in
    let d1, e1 = Stamp.fork b1 in
    let c2 = Stamp.update c1 in
    let c3 = Stamp.update c2 in
    let f1 = Stamp.join e1 c3 in
    let g_unreduced = Stamp.join ~reduce:false d1 f1 in
    (* the published rewrite chain: [1|00+01+1] -> [1|0+1] -> [eps|eps] *)
    let mid =
      let module N = Name_tree in
      Stamp.make
        ~update:(N.of_strings [ "1" ])
        ~id:(N.of_strings [ "0"; "1" ])
    in
    let g = Stamp.join d1 f1 in
    {
      named_steps =
        [
          ("a1", a1);
          ("a2", a2);
          ("b1", b1);
          ("c1", c1);
          ("d1", d1);
          ("e1", e1);
          ("c2", c2);
          ("c3", c3);
          ("f1", f1);
          ("g1", g);
        ];
      g_unreduced;
      g_reduction_chain = [ g_unreduced; mid; g ];
      final = g;
    }

  let matches_paper t =
    let s name = List.assoc name t.named_steps in
    Stamp.to_string (s "f1") = "[1|01+1]"
    && Stamp.to_string t.g_unreduced = "[1|00+01+1]"
    && Stamp.equal t.final Stamp.seed

  (* frontier query from Section 1.2: c_2 relates to d/e-line elements *)
  let frontier_queries t =
    let s name = List.assoc name t.named_steps in
    [
      ("d1", "c3", Stamp.relation (s "d1") (s "c3"));
      ("d1", "e1", Stamp.relation (s "d1") (s "e1"));
      ("d1", "f1", Stamp.relation (s "d1") (s "f1"));
    ]
end

(* --- Figure 3: a fixed-vv run encoded under fork-and-join dynamics --- *)

module Fig3 = struct
  (* The Figure 1 run, twice: once over version-vector replicas with
     served ids, once over version stamps where every synchronization is
     a join followed by a fork.  The paper's claim is that the encodings
     induce the same frontier order. *)

  (* Build the stamp side explicitly so element identities are clear. *)
  let stamp_side () =
    let a0 = Stamp.seed in
    let a0, b0 = Stamp.fork a0 in
    let a0, c0 = Stamp.fork a0 in
    let a1 = Stamp.update a0 in
    let ab = Stamp.join a1 b0 in
    let a1', b1 = Stamp.fork ab in
    let a2 = Stamp.update a1' in
    let c1 = Stamp.update c0 in
    let bc = Stamp.join b1 c1 in
    let b2, c2 = Stamp.fork bc in
    [ ("A", a2); ("B", b2); ("C", c2) ]

  let vv_side () =
    let f1 = Fig1.run () in
    f1.Fig1.final

  type t = {
    stamps : (string * Stamp.t) list;
    vectors : (string * Version_vector.t) list;
    stamp_relations : (string * string * Relation.t) list;
    vv_relations : (string * string * Relation.t) list;
  }

  let relations rel side =
    let pairs = [ ("A", "B"); ("B", "C"); ("A", "C") ] in
    List.map
      (fun (x, y) -> (x, y, rel (List.assoc x side) (List.assoc y side)))
      pairs

  let run () =
    let stamps = stamp_side () in
    let vectors = vv_side () in
    {
      stamps;
      vectors;
      stamp_relations = relations Stamp.relation stamps;
      vv_relations = relations Version_vector.relation vectors;
    }

  let encodings_agree t =
    List.for_all2
      (fun (x, y, r) (x', y', r') -> x = x' && y = y' && Relation.equal r r')
      t.stamp_relations t.vv_relations
end

(* --- Figure 2's frontier notion: elements that never coexist --- *)

module Frontiers = struct
  (* Along the Fig. 2/4 trace, record every frontier; two elements are
     coexisting iff they appear in some common frontier.  Used by the
     docs and the CLI to illustrate why c2-vs-a1 queries are
     meaningless. *)
  let all_frontiers () = Execution.Run_stamps.run_steps Fig4.trace

  let frontier_sizes () = List.map List.length (all_frontiers ())
end
