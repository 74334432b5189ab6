open Vstamp_core

type 'a t = { stamp : Stamp.t; values : 'a list }
(* [values] are the concurrent candidates, newest write first.  A
   single value means no unresolved conflict.  The stamp tracks the
   causal knowledge of this replica of the register. *)

let create value = { stamp = Stamp.update Stamp.seed; values = [ value ] }

let restore ~stamp values =
  if not (Stamp.well_formed stamp) then
    invalid_arg "Mv_register.restore: ill-formed stamp"
  else { stamp; values }

let stamp r = r.stamp

let read r = r.values

let value_exn r =
  match r.values with
  | [ v ] -> v
  | vs ->
      invalid_arg
        (Printf.sprintf "Mv_register.value_exn: %d concurrent values"
           (List.length vs))

let is_conflicted r = match r.values with [ _ ] -> false | _ -> true

let write r value = { stamp = Stamp.update r.stamp; values = [ value ] }

let fork r =
  let a, b = Stamp.fork r.stamp in
  ({ r with stamp = a }, { r with stamp = b })

(* Merge two register replicas.  If one side dominates, its candidates
   win outright; concurrent sides union their candidates (the multiple
   values a reader must reconcile). *)
let merge ?(equal = ( = )) a b =
  let stamp = Stamp.join a.stamp b.stamp in
  let values =
    match Stamp.relation a.stamp b.stamp with
    | Relation.Equal | Relation.Dominates -> a.values
    | Relation.Dominated -> b.values
    | Relation.Concurrent ->
        List.fold_left
          (fun acc v -> if List.exists (equal v) acc then acc else acc @ [ v ])
          a.values b.values
  in
  { stamp; values }

let sync ?equal a b =
  let merged = merge ?equal a b in
  let sa, sb = Stamp.fork merged.stamp in
  ({ merged with stamp = sa }, { merged with stamp = sb })

let resolve r ~value = { stamp = Stamp.update r.stamp; values = [ value ] }

let relation a b = Stamp.relation a.stamp b.stamp

let pp pp_value ppf r =
  Format.fprintf ppf "%a=[%a]" Stamp.pp r.stamp
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
       pp_value)
    r.values
