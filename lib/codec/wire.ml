open Vstamp_core

type error =
  | Truncated
  | Malformed of string

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated input"
  | Malformed what -> Format.fprintf ppf "malformed input: %s" what

(* Names serialize through a local canonical trie, rebuilt from the
   member list of the name:
     1        -> Node, followed by the left then right subtree
     0 0      -> Empty
     0 1      -> Mark
   The trie of an antichain is unique (it is the prefix tree of the
   members with no [Node (Empty, Empty)]), so the encoding is one-to-one
   with antichains regardless of the in-memory representation, and the
   bytes match the historical format (which wrote {!Name_tree}'s
   structure directly — that structure {e is} this trie). *)

type trie = Empty | Mark | Node of trie * trie

(* Members must be an antichain; epsilon can then only appear alone. *)
let rec trie_of_members = function
  | [] -> Empty
  | [ s ] when Bits.is_epsilon s -> Mark
  | members ->
      let zeros, ones =
        List.fold_left
          (fun (zs, os) s ->
            match Bits.uncons s with
            | Some (Bits.Zero, rest) -> (rest :: zs, os)
            | Some (Bits.One, rest) -> (zs, rest :: os)
            | None -> (zs, os))
          ([], []) members
      in
      Node (trie_of_members (List.rev zeros), trie_of_members (List.rev ones))

let rec members_of_trie path acc = function
  | Empty -> acc
  | Mark -> Bits.of_digits (List.rev path) :: acc
  | Node (l, r) ->
      let acc = members_of_trie (Bits.Zero :: path) acc l in
      members_of_trie (Bits.One :: path) acc r

let rec write_trie w = function
  | Empty ->
      Bitio.Writer.bit w false;
      Bitio.Writer.bit w false
  | Mark ->
      Bitio.Writer.bit w false;
      Bitio.Writer.bit w true
  | Node (l, r) ->
      Bitio.Writer.bit w true;
      write_trie w l;
      write_trie w r

let rec read_trie r =
  if Bitio.Reader.bit r then begin
    let l = read_trie r in
    let right = read_trie r in
    if l = Empty && right = Empty then failwith "node with two empty children"
    else Node (l, right)
  end
  else if Bitio.Reader.bit r then Mark
  else Empty

let write_name w n = write_trie w (trie_of_members (Name_tree.to_list n))

let read_name r = Name_tree.of_list (members_of_trie [] [] (read_trie r))

let name_to_string n =
  let w = Bitio.Writer.create () in
  write_name w n;
  Bitio.Writer.contents w

let name_bits n =
  let w = Bitio.Writer.create () in
  write_name w n;
  Bitio.Writer.bit_length w

let name_of_string s =
  match
    let r = Bitio.Reader.of_string s in
    read_name r
  with
  | n when Name_tree.well_formed n -> Ok n
  | _ -> Error (Malformed "ill-formed name")
  | exception Bitio.Truncated -> Error Truncated
  | exception Failure _ -> Error (Malformed "node with two empty children")

let write_stamp w s =
  write_name w (Stamp.update_name s);
  write_name w (Stamp.id s)

let read_stamp r =
  let u = read_name r in
  let i = read_name r in
  (u, i)

let stamp_to_string s =
  let w = Bitio.Writer.create () in
  write_stamp w s;
  let bytes = Bitio.Writer.contents w in
  if !Instr.enabled then Instr.note_wire_encode ~bytes:(String.length bytes);
  bytes

let stamp_bits s =
  let w = Bitio.Writer.create () in
  write_stamp w s;
  Bitio.Writer.bit_length w

let stamp_of_string ?(validate = true) data =
  match
    let r = Bitio.Reader.of_string data in
    read_stamp r
  with
  | exception Bitio.Truncated -> Error Truncated
  | exception Failure _ -> Error (Malformed "node with two empty children")
  | u, i ->
      let s = Stamp.make_unchecked ~update:u ~id:i in
      if (not validate) || Stamp.well_formed s then begin
        if !Instr.enabled then
          Instr.note_wire_decode ~bytes:(String.length data);
        Ok s
      end
      else Error (Malformed "update component not dominated by id (I1)")

(* Kept for replbench, which names the stamp codec [Wire.Make (B)]. *)
module Make (_ : Backend.S) = struct
  let stamp_to_string = stamp_to_string

  let stamp_of_string = stamp_of_string
end

(* Version vectors on the wire: entry count, then (id, counter) varint
   pairs.  Used by the E7 size comparison. *)
let write_vv w vv =
  let entries = Vstamp_vv.Version_vector.to_list vv in
  Bitio.Writer.varint w (List.length entries);
  List.iter
    (fun (id, c) ->
      Bitio.Writer.varint w id;
      Bitio.Writer.varint w c)
    entries

let read_vv r =
  let count = Bitio.Reader.varint r in
  if count > 1 lsl 20 then raise Bitio.Truncated;
  let entries =
    List.init count (fun _ ->
        let id = Bitio.Reader.varint r in
        let c = Bitio.Reader.varint r in
        (id, c))
  in
  Vstamp_vv.Version_vector.of_list entries

let vv_to_string vv =
  let w = Bitio.Writer.create () in
  write_vv w vv;
  Bitio.Writer.contents w

let vv_bits vv =
  let w = Bitio.Writer.create () in
  write_vv w vv;
  Bitio.Writer.bit_length w

let vv_of_string data =
  match
    let r = Bitio.Reader.of_string data in
    read_vv r
  with
  | vv -> Ok vv
  | exception Bitio.Truncated -> Error Truncated
