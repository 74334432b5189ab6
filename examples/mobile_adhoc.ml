(* Replica creation under partition: the motivating scenario.

   A fleet of field devices splits into two radio clusters.  Devices
   need to spawn new replicas *inside* a cluster that cannot reach the
   identity server.  With version vectors the operation blocks (the
   Id_source model returns `Unavailable`); with version stamps it is a
   local fork.  When the partition heals, everything reconciles and the
   causal relations are exactly right.

   Run with: dune exec examples/mobile_adhoc.exe *)

open Vstamp_core
open Vstamp_vv

let () =
  Format.printf "== Ad-hoc operation under partition ==@.@.";

  (* The identity server lives in cluster 0. *)
  let ids = Id_source.make (Id_source.Partitioned { server_group = 0 }) in

  (* Before the partition: one device exists, with a served id. *)
  let id0, ids = Result.get_ok (Id_source.alloc ~group:0 ids) in
  let vv_base = Version_vector.Replica.create ~id:id0 in
  let stamp_base = Stamp.seed in

  Format.printf "cluster 0 holds the id server; cluster 1 is cut off@.@.";

  (* --- version vectors: replica creation in cluster 1 fails --- *)
  Format.printf "-- version vectors --@.";
  (match Id_source.alloc ~group:1 ids with
  | Ok _ -> assert false
  | Error (`Unavailable, ids') ->
      Format.printf
        "  cluster 1 requests a replica id: UNAVAILABLE (failures so far: %d)@."
        (Id_source.failures ids');
      Format.printf
        "  -> the new field device cannot start tracking updates at all@.");

  (* The workaround the paper rejects: random ids.  They appear to work
     but collide silently; at 8 bits a handful of devices already clash. *)
  let random_ids = Id_source.make (Id_source.Random { bits = 8 }) in
  let rec spawn n src acc =
    if n = 0 then (acc, src)
    else
      match Id_source.alloc ~group:1 src with
      | Ok (id, src) -> spawn (n - 1) src (id :: acc)
      | Error _ -> assert false
  in
  let _, random_ids = spawn 40 random_ids [] in
  Format.printf
    "  probabilistic ids instead? 40 devices at 8 bits: %d silent collisions@.@."
    (Id_source.collisions random_ids);

  (* --- version stamps: forks are local --- *)
  Format.printf "-- version stamps --@.";
  let a, b = Stamp.fork stamp_base in
  let b, c = Stamp.fork b in
  let c, d = Stamp.fork c in
  Format.printf "  cluster 1 spawns three replicas by forking, zero messages:@.";
  List.iter
    (fun (name, s) -> Format.printf "    %-3s %a@." name Stamp.pp s)
    [ ("a", a); ("b", b); ("c", c); ("d", d) ];

  (* Field updates happen in both clusters. *)
  let b = Stamp.update b in
  let d = Stamp.update d in
  let a = Stamp.update a in
  Format.printf "@.  updates at a, b and d while partitioned@.";
  Format.printf "  b vs d: %s@." (Relation.to_string (Stamp.relation b d));
  Format.printf "  c vs b: %s (c is merely stale)@."
    (Relation.to_string (Stamp.relation c b));

  (* Heal: everyone merges back, pairwise. *)
  let bd = Stamp.join b d in
  let bdc = Stamp.join bd c in
  let survivor = Stamp.join a bdc in
  Format.printf "@.  partition heals; replicas merge back@.";
  Format.printf "    survivor: %a (id space healed: %b)@." Stamp.pp survivor
    (Name_tree.is_bottom (Stamp.id survivor));

  (* Version vectors in the same story needed four served ids before any
     of this could happen. *)
  Format.printf "@.-- bookkeeping comparison --@.";
  Format.printf
    "  vv ids consumed from the server: %d (and the cut-off cluster stayed blocked)@."
    (Id_source.issued_count ids);
  Format.printf "  stamp coordination messages:     0@.";
  ignore vv_base
