open Vstamp_core
module Engine = Vstamp_sync.Engine
module Ledger = Vstamp_sync.Ledger
module F = File_copy

(* Optional live instrumentation, off by default (mirrors
   Kv_node.Obs): when attached, every session, reconciled file and
   propagated byte counts into a registry for the embedded telemetry
   server to expose.  The delta ledger (shipped /
   minimal / redundant / efficiency) is the shared {!Vstamp_sync.Ledger}
   family under the [sync_] prefix. *)
module Obs = struct
  module R = Vstamp_obs.Registry
  module M = Vstamp_obs.Metric

  type counters = {
    ledger : Ledger.counters;
        (* sync_rounds_total, sync_{shipped,minimal,redundant}_bytes_total,
           sync_delta_efficiency *)
    bytes : M.counter;  (* sync_bytes_total: content bytes moved *)
    conflicts : M.counter;
    files : string -> M.counter;  (* sync_files_total{outcome=...} *)
  }

  let state : counters option ref = ref None

  let attach ?(registry = R.default) () =
    let outcome_tbl = Hashtbl.create 8 in
    let files outcome =
      match Hashtbl.find_opt outcome_tbl outcome with
      | Some c -> c
      | None ->
          let c =
            R.counter registry
              (R.with_labels "sync_files_total" [ ("outcome", outcome) ])
          in
          Hashtbl.add outcome_tbl outcome c;
          c
    in
    state :=
      Some
        {
          ledger = Ledger.counters ~registry ~prefix:"sync_" ();
          bytes = R.counter registry "sync_bytes_total";
          conflicts = R.counter registry "sync_conflicts_total";
          files;
        }

  let detach () = state := None

  let attached () = Option.is_some !state

  let[@inline] on f = match !state with Some c -> f c | None -> ()
end

type policy =
  | Manual
  | Prefer_left
  | Prefer_right
  | Merge of (left:string -> right:string -> string)

type outcome =
  | Created  (* the file existed on only one side: a replica was made *)
  | Unchanged  (* equivalent copies *)
  | Propagated_left_to_right
  | Propagated_right_to_left
  | Resolved  (* conflict settled by the policy *)
  | Conflict  (* Manual policy: both sides left untouched *)

type report = { path : string; relation : Relation.t option; outcome : outcome }

let outcome_to_string = function
  | Created -> "created"
  | Unchanged -> "unchanged"
  | Propagated_left_to_right -> "propagated ->"
  | Propagated_right_to_left -> "propagated <-"
  | Resolved -> "resolved"
  | Conflict -> "CONFLICT"

let pp_report ppf r =
  Format.fprintf ppf "%-20s %-12s %s" r.path
    (match r.relation with None -> "-" | Some rel -> Relation.to_string rel)
    (outcome_to_string r.outcome)

let outcome_slug = function
  | Created -> "created"
  | Unchanged -> "unchanged"
  | Propagated_left_to_right -> "propagated_lr"
  | Propagated_right_to_left -> "propagated_rl"
  | Resolved -> "resolved"
  | Conflict -> "conflict"

let conflicts reports = List.filter (fun r -> r.outcome = Conflict) reports

(* The session walks left-as-initiator, right-as-responder, so the
   engine's a→b direction is left→right. *)
let of_engine_outcome = function
  | Engine.Created -> Created
  | Engine.Unchanged -> Unchanged
  | Engine.Propagated_ab -> Propagated_left_to_right
  | Engine.Propagated_ba -> Propagated_right_to_left
  | Engine.Resolved -> Resolved
  | Engine.Conflict -> Conflict

let to_engine_outcome = function
  | Created -> Engine.Created
  | Unchanged -> Engine.Unchanged
  | Propagated_left_to_right -> Engine.Propagated_ab
  | Propagated_right_to_left -> Engine.Propagated_ba
  | Resolved -> Engine.Resolved
  | Conflict -> Engine.Conflict

(* Content bytes a reconciliation moved between the devices: the
   propagated or resolved payload; nothing for equivalent copies or a
   conflict left standing. *)
let moved_bytes outcome l r =
  match outcome with
  | Propagated_left_to_right -> String.length (F.content l)
  | Propagated_right_to_left -> String.length (F.content r)
  | Resolved -> String.length (F.content l)
  | Created | Unchanged | Conflict -> 0

let meta_bytes c = (F.size_bits c + 7) / 8

let sync_file_raw policy left right =
  match F.relation left right with
  | Relation.Equal
    when not (String.equal (F.content left) (F.content right)) -> (
      (* Equivalent stamps with different content can only mean the two
         copies were created independently (separate seed lineages share
         no causal context), so this is a genuine conflict even though
         the stamps cannot see it. *)
      let resolve content =
        let l, r = F.resolve left right ~content in
        (l, r, { path = F.path left; relation = Some Equal; outcome = Resolved })
      in
      match policy with
      | Manual ->
          ( left,
            right,
            { path = F.path left; relation = Some Equal; outcome = Conflict }
          )
      | Prefer_left -> resolve (F.content left)
      | Prefer_right -> resolve (F.content right)
      | Merge f ->
          resolve (f ~left:(F.content left) ~right:(F.content right)))
  | Relation.Equal ->
      ( left,
        right,
        { path = F.path left; relation = Some Equal; outcome = Unchanged } )
  | Relation.Dominates ->
      let l, r = F.propagate ~from:left ~into:right in
      ( l,
        r,
        {
          path = F.path left;
          relation = Some Dominates;
          outcome = Propagated_left_to_right;
        } )
  | Relation.Dominated ->
      let r, l = F.propagate ~from:right ~into:left in
      ( l,
        r,
        {
          path = F.path left;
          relation = Some Dominated;
          outcome = Propagated_right_to_left;
        } )
  | Relation.Concurrent
    when String.equal (F.content left) (F.content right) ->
      (* concurrent histories (possibly unrelated lineages) but identical
         contents: observationally nothing to reconcile *)
      ( left,
        right,
        {
          path = F.path left;
          relation = Some Concurrent;
          outcome = Unchanged;
        } )
  | Relation.Concurrent -> (
      let resolve content =
        let l, r = F.resolve left right ~content in
        ( l,
          r,
          {
            path = F.path left;
            relation = Some Concurrent;
            outcome = Resolved;
          } )
      in
      match policy with
      | Manual ->
          ( left,
            right,
            {
              path = F.path left;
              relation = Some Concurrent;
              outcome = Conflict;
            } )
      | Prefer_left -> resolve (F.content left)
      | Prefer_right -> resolve (F.content right)
      | Merge f ->
          resolve (f ~left:(F.content left) ~right:(F.content right)))

(* Wire accounting for one reconciled pair, charged on the
   post-reconciliation copies (what actually crossed, with the stamps
   the session left behind).  The split is the engine's unified
   formula: shipped = both metadatas + moved payload; minimal = what a
   frontier-exchange protocol needs. *)
let charge_of outcome l r =
  {
    Engine.meta_a = meta_bytes l;
    meta_b = meta_bytes r;
    payload = moved_bytes outcome l r;
  }

let observe_report outcome l r =
  Obs.on (fun c ->
      Vstamp_obs.Metric.inc (c.Obs.files (outcome_slug outcome));
      (match moved_bytes outcome l r with
      | 0 -> ()
      | n -> Vstamp_obs.Metric.add c.Obs.bytes n);
      let shipped, minimal =
        Engine.delta (to_engine_outcome outcome) (charge_of outcome l r)
      in
      Ledger.account c.Obs.ledger ~shipped ~minimal;
      if outcome = Conflict then Vstamp_obs.Metric.inc c.Obs.conflicts)

let sync_file policy left right =
  let l, r, report = sync_file_raw policy left right in
  observe_report report.outcome l r;
  (l, r, report)

(* The engine store adapter: a panasync store keyed by path, with the
   copies' frontier view (stamp + lineage, no payload) as metadata and
   an MD5 content digest standing in for the old direct content
   comparison of observationally-equal copies. *)
module ES = struct
  type t = Store.t

  type item = F.t

  type meta = F.meta

  let keys = Store.paths

  let find = Store.find

  let set store _key item = Store.set store item

  let meta_of = F.meta

  let relation = F.meta_relation

  let meta_bytes m = (F.meta_bits m + 7) / 8

  let payload_bytes item = String.length (F.content item)

  let digest item = Digest.string (F.content item)

  let of_meta ~key m = F.of_meta ~path:key m
end

module E = Engine.Make (ES)

(* The per-path reconciliation the engine drives: [item_a] is the
   initiator's copy (a payload-less phantom when this side dominates
   it — propagation never reads the dominated content), [item_b] this
   side's. *)
let engine_config policy =
  {
    E.reconcile =
      (fun ~key:_ item_a item_b ->
        let l, r, report = sync_file_raw policy item_a item_b in
        let relation =
          match report.relation with Some rel -> rel | None -> assert false
        in
        {
          E.item_a = l;
          item_b = r;
          relation;
          outcome = to_engine_outcome report.outcome;
          charge = charge_of report.outcome l r;
        });
    replicate = F.replicate;
  }

let spans =
  { E.span_session = "sync.session"; span_apply = "sync.apply"; unit_key = "files" }

let session ?(policy = Manual) left right =
  let config = engine_config policy in
  let ledger = Option.map (fun c -> c.Obs.ledger) !Obs.state in
  let on_report (er : E.report) =
    Obs.on (fun c ->
        let outcome = of_engine_outcome er.E.outcome in
        Vstamp_obs.Metric.inc (c.Obs.files (outcome_slug outcome));
        (match er.E.payload with
        | 0 -> ()
        | n -> Vstamp_obs.Metric.add c.Obs.bytes n);
        if outcome = Conflict then Vstamp_obs.Metric.inc c.Obs.conflicts)
  in
  let left, right, ereports =
    E.session ?ledger ~on_report ~spans config left right
  in
  let reports =
    List.map
      (fun (er : E.report) ->
        {
          path = er.E.key;
          relation = er.E.relation;
          outcome = of_engine_outcome er.E.outcome;
        })
      ereports
  in
  (left, right, reports)

(* Observational convergence: both stores hold every path with equal
   content.  (Stamp equivalence is deliberately not required: copies of
   colliding-but-independent lineages stay formally concurrent while
   being indistinguishable to any reader, and a session on them is a
   no-op.) *)
let converged left right =
  List.for_all
    (fun path ->
      match (Store.find left path, Store.find right path) with
      | Some a, Some b -> String.equal (F.content a) (F.content b)
      | _ -> false)
    (List.sort_uniq compare (Store.paths left @ Store.paths right))
