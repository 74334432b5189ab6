(* The witness type lives outside [Make] so every instantiation shares
   it: a violation only names frontier positions, never stamps, and the
   runtime monitors report it uniformly for the production stamps and
   the list-backed specification. *)
type violation = I1 of int | I2 of int * int | I3 of int * int

let pp_violation ppf = function
  | I1 i -> Format.fprintf ppf "I1 violated at frontier position %d" i
  | I2 (i, j) ->
      Format.fprintf ppf "I2 violated between positions %d and %d" i j
  | I3 (i, j) ->
      Format.fprintf ppf "I3 violated from position %d towards %d" i j

let violation_to_string = function
  | I1 i -> Printf.sprintf "I1(%d)" i
  | I2 (i, j) -> Printf.sprintf "I2(%d,%d)" i j
  | I3 (i, j) -> Printf.sprintf "I3(%d,%d)" i j

module Make (N : Name_intf.S) (S : Stamp.S with type name = N.t) = struct
  let i1 stamp = N.leq (S.update_name stamp) (S.id stamp)

  (* Every string of every id incomparable with every string of every
     other id: check all unordered pairs of distinct frontier members. *)
  let i2 frontier =
    let rec pairs = function
      | [] -> true
      | x :: rest ->
          List.for_all
            (fun y -> N.incomparable_with (S.id x) (S.id y))
            rest
          && pairs rest
    in
    pairs frontier

  (* For every ordered pair (x, y) and every string r of x's update:
     {r} <= id(y) implies {r} <= update(y). *)
  let i3 frontier =
    List.for_all
      (fun x ->
        List.for_all
          (fun y ->
            x == y
            || N.for_all
                 (fun r ->
                   (not (N.dominates_string (S.id y) r))
                   || N.dominates_string (S.update_name y) r)
                 (S.update_name x))
          frontier)
      frontier

  let all frontier =
    List.for_all i1 frontier && i2 frontier && i3 frontier

  let check frontier =
    let indexed = List.mapi (fun i s -> (i, s)) frontier in
    let i1_violations =
      List.filter_map (fun (i, s) -> if i1 s then None else Some (I1 i)) indexed
    in
    let i2_violations =
      List.concat_map
        (fun (i, x) ->
          List.filter_map
            (fun (j, y) ->
              if i < j && not (N.incomparable_with (S.id x) (S.id y)) then
                Some (I2 (i, j))
              else None)
            indexed)
        indexed
    in
    let i3_violations =
      List.concat_map
        (fun (i, x) ->
          List.filter_map
            (fun (j, y) ->
              if
                i <> j
                && not
                     (N.for_all
                        (fun r ->
                          (not (N.dominates_string (S.id y) r))
                          || N.dominates_string (S.update_name y) r)
                        (S.update_name x))
              then Some (I3 (i, j))
              else None)
            indexed)
        indexed
    in
    i1_violations @ i2_violations @ i3_violations
end

module Over_list = Make (Name) (Stamp.Over_list)

include Make (Name_tree) (Stamp)
