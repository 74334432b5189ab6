(* The [vstamp-sync/1] message layer inside the frames.

   One frame = one message = a tag byte followed by varint-length-
   prefixed fields.  Stamps travel as opaque strings (the canonical
   {!Vstamp_codec.Wire} encoding): the node layer owns stamp
   (de)serialization and this one owns structure.

   Decoding is total: any input — truncated, oversized counts,
   bit-flipped tags — comes back as [Error], never an exception.  The
   handshake carries the protocol magic, so a peer speaking anything
   else fails loudly at the first frame. *)

let version = 1

let magic = "vstamp-sync/1"

type hello = { node_id : string; backend : string; proto : int }

type msg =
  | Hello of hello  (** Initiator's opening frame. *)
  | Hello_ack of hello  (** Responder's acceptance. *)
  | Offer of string * (string * string * string) list
      (** Trace header + frontier: (key, stamp, digest) per entry. *)
  | Want of string list  (** Keys whose full entries are needed. *)
  | Items of (string * string * string list) list
      (** Full entries: (key, stamp, values). *)
  | Result of (string * string * string list) list
      (** The initiator's halves, same shape as [Items]. *)
  | Bye  (** Polite end of session. *)

(* --- primitive writers --- *)

let put_varint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  if n < 0 then invalid_arg "Proto.put_varint: negative";
  go n

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let put_list b put xs =
  put_varint b (List.length xs);
  List.iter (put b) xs

(* --- primitive readers ---

   A reader is [string -> pos -> (value * pos) option]; [None] means
   malformed and poisons the whole decode. *)

let ( let* ) o f = match o with None -> None | Some v -> f v

let get_varint s pos =
  let len = String.length s in
  let rec go pos shift acc =
    if pos >= len || shift > 56 then None
    else
      let c = Char.code s.[pos] in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then Some (acc, pos + 1)
      else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let get_string s pos =
  let* n, pos = get_varint s pos in
  if n < 0 || pos + n > String.length s then None
  else Some (String.sub s pos n, pos + n)

let get_list get_elt s pos =
  let* n, pos = get_varint s pos in
  (* a count cannot exceed one element per remaining byte: reject
     absurd announcements before looping *)
  if n > String.length s - pos then None
  else
    let rec go i pos acc =
      if i = 0 then Some (List.rev acc, pos)
      else
        let* v, pos = get_elt s pos in
        go (i - 1) pos (v :: acc)
    in
    go n pos []

(* --- message codec --- *)

let tag = function
  | Hello _ -> 1
  | Hello_ack _ -> 2
  | Offer _ -> 3
  | Want _ -> 4
  | Items _ -> 5
  | Result _ -> 6
  | Bye -> 7

let put_hello b h =
  put_string b magic;
  put_varint b h.proto;
  put_string b h.node_id;
  put_string b h.backend

let put_frontier_entry b (key, stamp, digest) =
  put_string b key;
  put_string b stamp;
  put_string b digest

let put_delta_entry b (key, stamp, values) =
  put_string b key;
  put_string b stamp;
  put_list b put_string values

let encode msg =
  let b = Buffer.create 256 in
  Buffer.add_char b (Char.chr (tag msg));
  (match msg with
  | Hello h | Hello_ack h -> put_hello b h
  | Offer (header, frontier) ->
      put_string b header;
      put_list b put_frontier_entry frontier
  | Want keys -> put_list b put_string keys
  | Items entries | Result entries -> put_list b put_delta_entry entries
  | Bye -> ());
  Buffer.contents b

let get_hello s pos =
  let* m, pos = get_string s pos in
  if not (String.equal m magic) then None
  else
    let* proto, pos = get_varint s pos in
    let* node_id, pos = get_string s pos in
    let* backend, pos = get_string s pos in
    Some ({ node_id; backend; proto }, pos)

let get_frontier_entry s pos =
  let* key, pos = get_string s pos in
  let* stamp, pos = get_string s pos in
  let* digest, pos = get_string s pos in
  Some ((key, stamp, digest), pos)

let get_delta_entry s pos =
  let* key, pos = get_string s pos in
  let* stamp, pos = get_string s pos in
  let* values, pos = get_list get_string s pos in
  Some ((key, stamp, values), pos)

let decode s =
  let fail = Error "malformed message" in
  if String.length s < 1 then Error "empty message"
  else
    let finish pos v = if pos = String.length s then Ok v else fail in
    let pos = 1 in
    match Char.code s.[0] with
    | 1 -> (
        match get_hello s pos with
        | Some (h, pos) -> finish pos (Hello h)
        | None -> fail)
    | 2 -> (
        match get_hello s pos with
        | Some (h, pos) -> finish pos (Hello_ack h)
        | None -> fail)
    | 3 -> (
        match
          let* header, pos = get_string s pos in
          let* frontier, pos = get_list get_frontier_entry s pos in
          Some ((header, frontier), pos)
        with
        | Some ((header, frontier), pos) -> finish pos (Offer (header, frontier))
        | None -> fail)
    | 4 -> (
        match get_list get_string s pos with
        | Some (keys, pos) -> finish pos (Want keys)
        | None -> fail)
    | 5 -> (
        match get_list get_delta_entry s pos with
        | Some (entries, pos) -> finish pos (Items entries)
        | None -> fail)
    | 6 -> (
        match get_list get_delta_entry s pos with
        | Some (entries, pos) -> finish pos (Result entries)
        | None -> fail)
    | 7 -> finish pos Bye
    | t -> Error (Printf.sprintf "unknown message tag %d" t)
