type elt = Stamp.t

type t = Stamp.t list

let of_list = Fun.id

let to_list = Fun.id

let initial = [ Stamp.seed ]

let size = List.length

let nth = List.nth

let classify frontier x =
  List.filter_map
    (fun y -> if y == x then None else Some (Stamp.relation x y))
    frontier

let dominant frontier =
  List.filter
    (fun x ->
      List.for_all (fun y -> x == y || not (Stamp.obsolete x y)) frontier)
    frontier

let obsolete frontier =
  List.filter
    (fun x ->
      List.exists (fun y -> (not (x == y)) && Stamp.obsolete x y) frontier)
    frontier

let conflicts frontier =
  let indexed = List.mapi (fun i x -> (i, x)) frontier in
  List.concat_map
    (fun (i, x) ->
      List.filter_map
        (fun (j, y) ->
          if i < j && Stamp.inconsistent x y then Some (x, y) else None)
        indexed)
    indexed

let consistent frontier = conflicts frontier = []

let all_equivalent = function
  | [] -> true
  | x :: rest -> List.for_all (Stamp.equivalent x) rest

let total_bits frontier =
  List.fold_left (fun acc s -> acc + Stamp.size_bits s) 0 frontier

(* Retire every obsolete element by joining it into a dominant member
   that already dominates it.  Joining into a dominator adds no new
   knowledge to the survivor (its update component is unchanged), so no
   fresh domination relations appear among the survivors; only the ids
   merge and shrink under the Section 6 reduction. *)
let prune frontier =
  let dominants = dominant frontier in
  let stale = List.filter (fun x -> not (List.memq x dominants)) frontier in
  List.fold_left
    (fun survivors x ->
      let rec place = function
        | [] ->
            (* every obsolete element is transitively dominated by a
               maximal one, so a host always exists *)
            assert false
        | d :: rest when Stamp.leq x d -> Stamp.join d x :: rest
        | d :: rest -> d :: place rest
      in
      place survivors)
    dominants stale

let merge_all = function
  | [] -> invalid_arg "Frontier.merge_all: empty frontier"
  | x :: rest -> List.fold_left (fun acc s -> Stamp.join acc s) x rest

let pp ppf frontier =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Stamp.pp)
    frontier
