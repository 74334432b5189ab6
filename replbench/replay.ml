(* The layer-traced replay of a cluster's sessions.

   The replay keeps its own [Stamped_kv] store per replica, fed the same
   puts in the same order as the real nodes, and re-runs every session a
   node ran over TCP by calling each layer's public functions in the
   order the node calls them: the store legs, the [Wire] stamp codec,
   the [Proto] messages and the [Frame]s, with the socket cut out (each
   frame is decoded straight from the bytes just encoded).  It must
   reproduce the real cluster's frame bytes and store content exactly;
   the caller checks both.

   Every session runs twice from the same immutable stores: once
   untraced and once traced (the order alternates between sessions),
   and the wall-time gap between the two passes (the untraced one is
   counted as ["untraced_s"], the traced one is the ["session"] span) is
   the tracing overhead. *)

open Sut
module S = B.Stamp
module Proto = Vstamp_net.Proto
module Frame = Vstamp_net.Frame

type t = {
  tr : Tracer.t;
  stores : (string, KV.t) Hashtbl.t;  (* replica name -> store *)
  mutable bytes : int;  (* frame bytes of every session so far *)
}

let create tr = { tr; stores = Hashtbl.create 8; bytes = 0 }

let add r name = Hashtbl.replace r.stores name KV.empty

let drop r name = Hashtbl.remove r.stores name

let store r name = Hashtbl.find r.stores name

(* A batch of puts into one replica, as one span: a single put is
   below the clock's resolution. *)
let put r name writes =
  let st = store r name in
  Hashtbl.replace r.stores name
    (Tracer.span ~parent:"" r.tr "kv.put" (fun () ->
         List.fold_left (fun st (key, v) -> KV.put st ~key v) st writes));
  Tracer.count r.tr "kv.puts" (float_of_int (List.length writes))

let content r name =
  let st = store r name in
  List.map (fun k -> (k, List.sort compare (KV.get st k))) (KV.keys st)

let hello name =
  { Proto.node_id = name; backend = backend_key; proto = Proto.version }

let stamp_exn s =
  match C.stamp_of_string s with
  | Ok st -> st
  | Error e ->
      failwith
        (Format.asprintf "replay: bad stamp: %a" Vstamp_codec.Wire.pp_error e)

(* One message across the cut-out socket: encode, frame, unframe,
   decode.  Returns the decoded message and the frame's wire bytes. *)
let xfer tr kind msg =
  let payload = Tracer.span tr "proto.encode" (fun () -> Proto.encode msg) in
  let frame = Tracer.span tr "frame.encode" (fun () -> Frame.encode payload) in
  let payload' =
    Tracer.span tr "frame.decode" (fun () ->
        match Frame.decode frame with
        | Ok (p, _) -> p
        | Error e -> failwith (Format.asprintf "replay: %a" Frame.pp_error e))
  in
  let msg' =
    Tracer.span tr "proto.decode" (fun () ->
        match Proto.decode payload' with
        | Ok m -> m
        | Error m -> failwith ("replay: " ^ m))
  in
  if kind <> "" then
    Tracer.count tr ("proto.bytes." ^ kind)
      (float_of_int (String.length payload));
  Tracer.count tr "frame.count" 1.;
  Tracer.count tr "frame.bytes" (float_of_int (String.length frame));
  (msg', String.length frame)

let note_stamps tr encoded =
  if tr.Tracer.on then
    List.iter
      (fun (_, s, _) ->
        let n = float_of_int (String.length s) in
        Tracer.count tr "wire.stamps" 1.;
        Tracer.count tr "wire.stamp_bytes" n;
        Tracer.peak tr "wire.stamp_bytes_max" n)
      encoded

let unexpected what = failwith ("replay: expected " ^ what)

(* One session, as [Node.sync_now] runs it from [si] (initiator) to
   [sj] (responder).  Returns both updated stores, the frame bytes, and
   what the responder decoded (for the stamp replay). *)
let pass tr ~initiator ~responder si sj =
  let bytes = ref 0 in
  let xfer kind msg =
    let m, n = xfer tr kind msg in
    bytes := !bytes + n;
    m
  in
  ignore (xfer "" (Proto.Hello (hello initiator)));
  ignore (xfer "" (Proto.Hello_ack (hello responder)));
  let frontier = Tracer.span tr "kv.offer" (fun () -> KV.offer si) in
  let encoded =
    Tracer.span tr "wire.encode" (fun () ->
        List.map (fun (k, st, d) -> (k, C.stamp_to_string st, d)) frontier)
  in
  note_stamps tr encoded;
  let frontier' =
    match xfer "offer" (Proto.Offer ("", encoded)) with
    | Proto.Offer (_, fs) ->
        Tracer.span tr "wire.decode" (fun () ->
            List.map (fun (k, s, d) -> (k, stamp_exn s, d)) fs)
    | _ -> unexpected "Offer"
  in
  let wanted = Tracer.span tr "kv.wants" (fun () -> KV.wants sj frontier') in
  Tracer.count tr "kv.keys_offered" (float_of_int (List.length frontier'));
  Tracer.count tr "kv.keys_wanted" (float_of_int (List.length wanted));
  let wanted' =
    match xfer "want" (Proto.Want wanted) with
    | Proto.Want w -> w
    | _ -> unexpected "Want"
  in
  let ship kind wrap unwrap delta =
    let encoded =
      Tracer.span tr "wire.encode" (fun () ->
          List.map (fun (k, st, vs) -> (k, C.stamp_to_string st, vs)) delta)
    in
    note_stamps tr encoded;
    match unwrap (xfer kind (wrap encoded)) with
    | Some es ->
        Tracer.span tr "wire.decode" (fun () ->
            List.map (fun (k, s, vs) -> (k, stamp_exn s, vs)) es)
    | None -> unexpected kind
  in
  let items =
    ship "items"
      (fun es -> Proto.Items es)
      (function Proto.Items es -> Some es | _ -> None)
      (Tracer.span tr "kv.fulfil" (fun () -> KV.fulfil si wanted'))
  in
  let tally = Vstamp_sync.Ledger.create () in
  let sj', results =
    Tracer.span tr "kv.reconcile" (fun () ->
        KV.reconcile ~tally sj frontier' items)
  in
  let results' =
    ship "result"
      (fun es -> Proto.Result es)
      (function Proto.Result es -> Some es | _ -> None)
      results
  in
  let si' = Tracer.span tr "kv.apply" (fun () -> KV.apply si results') in
  ignore (xfer "" Proto.Bye);
  (si', sj', !bytes, frontier', items)

(* Replay [S.relation] on every stamp pair the responder compared
   ([kv.wants] and [kv.reconcile]) and [S.sync] on every pair
   [kv.reconcile] merged.  These spans sit inside the [kv.*] legs, so
   they are reported beside them and left out of the coverage sum. *)
let stamp_replay tr sj frontier items =
  let received = Hashtbl.create 16 in
  List.iter (fun (k, st, _) -> Hashtbl.replace received k st) items;
  let relations = ref [] and syncs = ref [] in
  List.iter
    (fun (k, fm, _) ->
      match KV.stamp sj k with
      | None -> ()
      | Some mine -> (
          relations := (fm, mine) :: !relations;
          match Hashtbl.find_opt received k with
          | Some theirs ->
              relations := (theirs, mine) :: !relations;
              syncs := (theirs, mine) :: !syncs
          | None ->
              if S.relation fm mine = Vstamp_core.Relation.Dominated then
                syncs := (fm, mine) :: !syncs))
    frontier;
  let relations = !relations and syncs = !syncs in
  Tracer.span ~parent:"kv" tr "stamp.relation" (fun () ->
      List.iter (fun (a, b) -> ignore (S.relation a b)) relations);
  Tracer.span ~parent:"kv" tr "stamp.sync" (fun () ->
      List.iter (fun (a, b) -> ignore (S.sync a b)) syncs);
  Tracer.count tr "stamp.relations" (float_of_int (List.length relations));
  Tracer.count tr "stamp.concurrent"
    (float_of_int
       (List.length
          (List.filter
             (fun (a, b) -> S.relation a b = Vstamp_core.Relation.Concurrent)
             relations)))

let off = Tracer.create ()

let session r ~initiator ~responder =
  let si = store r initiator and sj = store r responder in
  let tr = r.tr in
  tr.Tracer.sid <- tr.Tracer.sid + 1;
  let untraced () =
    let t0 = now () in
    ignore (pass off ~initiator ~responder si sj);
    Tracer.count tr "untraced_s" (now () -. t0)
  in
  let traced () =
    Tracer.span ~parent:"" tr "session" (fun () ->
        pass tr ~initiator ~responder si sj)
  in
  let si', sj', bytes, frontier', items =
    if not tr.Tracer.on then pass off ~initiator ~responder si sj
    else if tr.Tracer.sid mod 2 = 0 then (
      untraced ();
      traced ())
    else
      let out = traced () in
      untraced ();
      out
  in
  if tr.Tracer.on then stamp_replay tr sj frontier' items;
  r.bytes <- r.bytes + bytes;
  Hashtbl.replace r.stores initiator si';
  Hashtbl.replace r.stores responder sj'
