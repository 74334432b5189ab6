(* In-memory spans and counts for the traced replay.

   One span per call into a layer, keyed by the session it belongs to;
   counts are recorded at the same boundaries.  Spans stay in memory
   and are written out once, when the run ends.  A disabled tracer
   runs the wrapped calls and records nothing, so the same replay code
   serves the traced and the untraced pass. *)

type span = {
  sid : int;  (* session id; a span outside sessions carries the latest *)
  name : string;  (* layer call, e.g. "kv.wants" *)
  parent : string;  (* "session", the span that contains it, or "" *)
  t0 : float;
  t1 : float;
}

type t = {
  mutable on : bool;
  mutable sid : int;
  mutable spans : span list;
  counts : (string, float) Hashtbl.t;
}

let create () = { on = false; sid = 0; spans = []; counts = Hashtbl.create 64 }

let span ?(parent = "session") t name f =
  if not t.on then f ()
  else begin
    let t0 = Sut.now () in
    let r = f () in
    let t1 = Sut.now () in
    t.spans <- { sid = t.sid; name; parent; t0; t1 } :: t.spans;
    r
  end

let count t name n =
  if t.on then
    Hashtbl.replace t.counts name
      (n +. Option.value ~default:0. (Hashtbl.find_opt t.counts name))

let peak t name v =
  if t.on then
    Hashtbl.replace t.counts name
      (Float.max v (Option.value ~default:v (Hashtbl.find_opt t.counts name)))

let get t name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)

(* Total seconds spent in spans called [name]. *)
let seconds t name =
  List.fold_left
    (fun acc (s : span) ->
      if String.equal s.name name then acc +. (s.t1 -. s.t0) else acc)
    0. t.spans

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s : span) ->
          Printf.fprintf oc
            "{\"session\":%d,\"span\":%S,\"parent\":%S,\"start_s\":%.9f,\
             \"end_s\":%.9f}\n"
            s.sid s.name s.parent s.t0 s.t1)
        (List.rev t.spans))
