open Vstamp_core
module Ledger = Vstamp_sync.Ledger
module R = Vstamp_obs.Registry
module M = Vstamp_obs.Metric
module J = Vstamp_obs.Jsonx
module Tr = Vstamp_obs.Trace_ctx

let initial_backoff_s = 0.2

let max_backoff_s = 5.0

module KV = Vstamp_kvs.Stamped_kv
module C = Vstamp_codec.Wire

type metrics = {
  ledger : Ledger.counters;  (* net_sync_{rounds,shipped,...} *)
  rounds : M.counter;  (* net_rounds_total: initiated rounds done *)
  tx : M.counter;  (* net_tx_bytes_total *)
  rx : M.counter;  (* net_rx_bytes_total *)
  proto_errors : M.counter;  (* net_protocol_errors_total *)
  reconnects : M.counter;  (* net_reconnects_total *)
  peers_connected : M.gauge;  (* net_peers_connected *)
  store_keys : M.gauge;  (* net_store_keys *)
  store_digest : M.gauge;  (* net_store_digest *)
}

let metrics registry =
  {
    ledger = Ledger.counters ~registry ~prefix:"net_sync_" ();
    rounds = R.counter registry "net_rounds_total";
    tx = R.counter registry "net_tx_bytes_total";
    rx = R.counter registry "net_rx_bytes_total";
    proto_errors = R.counter registry "net_protocol_errors_total";
    reconnects = R.counter registry "net_reconnects_total";
    peers_connected = R.gauge registry "net_peers_connected";
    store_keys = R.gauge registry "net_store_keys";
    store_digest = R.gauge registry "net_store_digest";
  }

type peer_state =
  | Idle  (* not yet dialed *)
  | Connecting
  | Connected
  | Backoff of float  (* current retry delay *)

type peer = {
  p_host : string;
  p_port : int;
  mutable p_state : peer_state;
  mutable p_node_id : string option;  (* learned from the handshake *)
  mutable p_attempts : int;  (* consecutive failed dials *)
  mutable p_rounds : int;  (* completed rounds on this link *)
  mutable p_last_error : string option;
}

type t = {
  node_id : string;
  interval_s : float;
  idle_timeout_s : float;
  m : metrics;
  mutex : Mutex.t;
  mutable store : KV.t;
  mutable stopping : bool;
  listen_fd : Unix.file_descr;
  bound_addr : Unix.sockaddr;
  bound_port : int;
  peers : peer list;
  mutable accept_thread : Thread.t option;
  mutable dial_threads : Thread.t list;
  mutable conn_threads : (int * (Thread.t * Unix.file_descr)) list;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The observable-content fingerprint: every replica that holds the
   same keys with the same candidate sets reports the same digest,
   whatever its stamps look like — this is what the convergence
   assertions of the smoke test and E18 compare across nodes. *)
let content_digest store =
  Hashtbl.hash
    (List.map
       (fun k -> (k, List.sort compare (KV.get store k)))
       (KV.keys store))

let refresh_store_gauges t =
  M.set t.m.store_keys (float_of_int (List.length (KV.keys t.store)));
  M.set t.m.store_digest (float_of_int (content_digest t.store))

let refresh_peer_gauge t =
  let n =
    List.length
      (List.filter (fun p -> p.p_state = Connected) t.peers)
  in
  M.set t.m.peers_connected (float_of_int n)

(* --- store access --- *)

let put t ~key value =
  locked t (fun () ->
      t.store <- KV.put t.store ~key value;
      refresh_store_gauges t)

let get t key = locked t (fun () -> KV.get t.store key)

let keys t = locked t (fun () -> KV.keys t.store)

let digest t = locked t (fun () -> content_digest t.store)

let port t = t.bound_port

(* --- wire helpers --- *)

let send t fd msg =
  match Frame.write fd (Proto.encode msg) with
  | Ok n ->
      M.add t.m.tx n;
      Ok ()
  | Error e -> Error (Format.asprintf "%a" Frame.pp_error e)

(* [Ok None] is a clean EOF.  Torn and oversized frames are protocol
   errors; so is a frame that does not decode. *)
let recv t fd =
  match Frame.read fd with
  | Ok None -> Ok None
  | Error (Frame.Truncated | Frame.Oversized _) as e ->
      M.inc t.m.proto_errors;
      (match e with
      | Error err -> Error (Format.asprintf "%a" Frame.pp_error err)
      | Ok _ -> assert false)
  | Error (Frame.Io m) -> Error m
  | Ok (Some (payload, n)) -> (
      M.add t.m.rx n;
      match Proto.decode payload with
      | Ok msg -> Ok (Some msg)
      | Error m ->
          M.inc t.m.proto_errors;
          Error m)

let hello t =
  {
    Proto.node_id = t.node_id;
    backend = Backend.default_key;
    proto = Proto.version;
  }

let decode_stamp s =
  match C.stamp_of_string s with
  | Ok st -> Ok st
  | Error e -> Error (Format.asprintf "bad stamp: %a" Vstamp_codec.Wire.pp_error e)

let decode_frontier fs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (key, stamp, digest) :: rest -> (
        match decode_stamp stamp with
        | Ok st -> go ((key, st, digest) :: acc) rest
        | Error _ as e -> e)
  in
  go [] fs

let decode_delta es =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (key, stamp, values) :: rest -> (
        match decode_stamp stamp with
        | Ok st -> go ((key, st, values) :: acc) rest
        | Error _ as e -> e)
  in
  go [] es

let encode_frontier fs =
  List.map (fun (key, st, digest) -> (key, C.stamp_to_string st, digest)) fs

let encode_delta es =
  List.map (fun (key, st, values) -> (key, C.stamp_to_string st, values)) es

(* --- responder: one thread per accepted connection --- *)

(* A responder session: expect Hello, ack it, then serve Offer/Items
   pairs until Bye, EOF, idle timeout or an error.  All store
   mutation happens inside one lock-held reconcile, so a session is
   atomic with respect to local puts and other sessions. *)
let serve_connection t fd =
  let proto_fail m =
    M.inc t.m.proto_errors;
    Error m
  in
  let handshake () =
    match recv t fd with
    | Ok (Some (Proto.Hello h)) ->
        if h.Proto.proto <> Proto.version then
          proto_fail
            (Printf.sprintf "protocol version mismatch: theirs %d, ours %d"
               h.Proto.proto Proto.version)
        else (
          (* the peer's [backend] key is not checked: the wire codec
             is canonical, so stamps decode identically whatever shape
             the peer keeps them in *)
          match send t fd (Proto.Hello_ack (hello t)) with
          | Ok () -> Ok ()
          | Error _ as e -> e)
    | Ok (Some _) -> proto_fail "expected Hello"
    | Ok None -> Error "closed before handshake"
    | Error _ as e -> e
  in
  let reconcile_round header frontier items =
    let apply () =
      locked t (fun () ->
          let tally = Ledger.create () in
          let store, results =
            KV.reconcile ~tally t.store frontier items
          in
          t.store <- store;
          Ledger.round t.m.ledger;
          Ledger.account t.m.ledger ~shipped:tally.Ledger.shipped
            ~minimal:tally.Ledger.minimal;
          refresh_store_gauges t;
          results)
    in
    if String.length header > 0 && Tr.attached () then
      Tr.with_remote_span ~header
        ~attrs:[ ("keys", J.Int (List.length frontier)) ]
        "net.apply" apply
    else apply ()
  in
  let rec session pending_offer =
    if locked t (fun () -> t.stopping) then Ok ()
    else
    match recv t fd with
    | Ok None | Ok (Some Proto.Bye) -> Ok ()
    | Error _ as e -> e
    | Ok (Some (Proto.Offer (header, frontier))) -> (
        match decode_frontier frontier with
        | Error m -> proto_fail m
        | Ok frontier -> (
            let wanted = locked t (fun () -> KV.wants t.store frontier) in
            match send t fd (Proto.Want wanted) with
            | Ok () -> session (Some (header, frontier))
            | Error _ as e -> e))
    | Ok (Some (Proto.Items items)) -> (
        match pending_offer with
        | None -> proto_fail "Items without a preceding Offer"
        | Some (header, frontier) -> (
            match decode_delta items with
            | Error m -> proto_fail m
            | Ok items -> (
                let results = reconcile_round header frontier items in
                match send t fd (Proto.Result (encode_delta results)) with
                | Ok () -> session None
                | Error _ as e -> e)))
    | Ok (Some (Proto.Hello _ | Proto.Hello_ack _)) ->
        proto_fail "unexpected handshake mid-session"
    | Ok (Some (Proto.Want _ | Proto.Result _)) ->
        proto_fail "unexpected initiator-bound message"
  in
  match handshake () with Ok () -> ignore (session None) | Error _ -> ()

let handle_connection t fd =
  let finally () =
    (* deregister before closing: [stop] only shuts down fds it can
       still see in the table, so it never touches a closed (and
       possibly recycled) descriptor *)
    let self = Thread.id (Thread.self ()) in
    locked t (fun () ->
        t.conn_threads <- List.remove_assoc self t.conn_threads);
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      (* an idle or vanished peer must not pin a responder thread
         forever *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.idle_timeout_s
       with Unix.Unix_error _ -> ());
      try serve_connection t fd
      with Unix.Unix_error _ | Sys_error _ -> ())

let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      if locked t (fun () -> t.stopping) then (
        try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        locked t (fun () ->
            let th = Thread.create (fun () -> handle_connection t fd) () in
            t.conn_threads <- (Thread.id th, (th, fd)) :: t.conn_threads);
        accept_loop t
      end
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      if not (locked t (fun () -> t.stopping)) then accept_loop t
  | exception Unix.Unix_error _ -> ()

(* --- initiator: one dial thread per configured peer --- *)

let connect_peer t peer =
  match
    let inet =
      match Unix.inet_addr_of_string peer.p_host with
      | addr -> addr
      | exception Failure _ -> (
          match (Unix.gethostbyname peer.p_host).Unix.h_addr_list with
          | [||] -> failwith (Printf.sprintf "cannot resolve %S" peer.p_host)
          | addrs -> addrs.(0))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.idle_timeout_s;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.idle_timeout_s;
       Unix.connect fd (Unix.ADDR_INET (inet, peer.p_port))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Failure m -> Error m
  | exception Not_found -> Error (Printf.sprintf "cannot resolve %S" peer.p_host)

let handshake_peer t peer fd =
  match send t fd (Proto.Hello (hello t)) with
  | Error _ as e -> e
  | Ok () -> (
      match recv t fd with
      | Ok (Some (Proto.Hello_ack h)) ->
          if h.Proto.proto <> Proto.version then (
            M.inc t.m.proto_errors;
            Error
              (Printf.sprintf "protocol version mismatch: theirs %d, ours %d"
                 h.Proto.proto Proto.version))
          else (
            peer.p_node_id <- Some h.Proto.node_id;
            Ok ())
      | Ok (Some _) ->
          M.inc t.m.proto_errors;
          Error "expected Hello_ack"
      | Ok None -> Error "closed during handshake"
      | Error _ as e -> e)

(* One anti-entropy round over an established link.  The apply guard:
   a result entry is only adopted when the local entry is still what
   the round's offer advertised — a put that raced the round keeps
   its write and the next round reconciles it properly. *)
let do_round t peer fd =
  let run () =
    let header =
      if Tr.attached () then
        match Tr.current () with
        | Some ctx -> Tr.to_header ctx
        | None -> ""
      else ""
    in
    let snapshot, frontier =
      locked t (fun () -> (t.store, KV.offer t.store))
    in
    match send t fd (Proto.Offer (header, encode_frontier frontier)) with
    | Error _ as e -> e
    | Ok () -> (
        match recv t fd with
        | Ok (Some (Proto.Want wanted)) -> (
            let items =
              locked t (fun () -> KV.fulfil t.store wanted)
            in
            match send t fd (Proto.Items (encode_delta items)) with
            | Error _ as e -> e
            | Ok () -> (
                match recv t fd with
                | Ok (Some (Proto.Result results)) -> (
                    match decode_delta results with
                    | Error m ->
                        M.inc t.m.proto_errors;
                        Error m
                    | Ok results ->
                        locked t (fun () ->
                            let fresh =
                              List.filter
                                (fun (key, _, _) ->
                                  KV.stamp t.store key
                                  = KV.stamp snapshot key
                                  && KV.get t.store key
                                     = KV.get snapshot key)
                                results
                            in
                            t.store <- KV.apply t.store fresh;
                            refresh_store_gauges t);
                        M.inc t.m.rounds;
                        peer.p_rounds <- peer.p_rounds + 1;
                        Ok ())
                | Ok (Some _) ->
                    M.inc t.m.proto_errors;
                    Error "expected Result"
                | Ok None -> Error "closed mid-round"
                | Error _ as e -> e))
        | Ok (Some _) ->
            M.inc t.m.proto_errors;
            Error "expected Want"
        | Ok None -> Error "closed mid-round"
        | Error _ as e -> e)
  in
  if Tr.attached () then
    Tr.with_span "net.session"
      ~attrs:
        [
          ("peer", J.String (Printf.sprintf "%s:%d" peer.p_host peer.p_port));
        ]
      run
  else run ()

(* Interruptible sleep: wake early when the node is stopping. *)
let snooze t seconds =
  let rec go left =
    if left > 0. && not (locked t (fun () -> t.stopping)) then begin
      Thread.delay (Float.min 0.05 left);
      go (left -. 0.05)
    end
  in
  go seconds

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec dial_loop t peer ~delay =
  if not (locked t (fun () -> t.stopping)) then begin
    peer.p_state <- Connecting;
    match connect_peer t peer with
    | Error m -> back_off t peer ~delay m
    | Ok fd -> (
        match handshake_peer t peer fd with
        | Error m ->
            close_quietly fd;
            back_off t peer ~delay m
        | Ok () ->
            peer.p_state <- Connected;
            peer.p_attempts <- 0;
            peer.p_last_error <- None;
            refresh_peer_gauge t;
            rounds_loop t peer fd)
  end

and back_off t peer ~delay reason =
  peer.p_attempts <- peer.p_attempts + 1;
  peer.p_last_error <- Some reason;
  peer.p_state <- Backoff delay;
  refresh_peer_gauge t;
  M.inc t.m.reconnects;
  snooze t delay;
  dial_loop t peer ~delay:(Float.min max_backoff_s (delay *. 2.))

and rounds_loop t peer fd =
  if locked t (fun () -> t.stopping) then begin
    let (_ : (unit, string) result) = send t fd Proto.Bye in
    close_quietly fd;
    peer.p_state <- Idle;
    refresh_peer_gauge t
  end
  else
    match do_round t peer fd with
    | Ok () ->
        snooze t t.interval_s;
        rounds_loop t peer fd
    | Error m ->
        close_quietly fd;
        back_off t peer ~delay:initial_backoff_s m

(* A one-shot synchronous round against every peer, over dedicated
   connections: deterministic anti-entropy for benches, smoke tests
   and the soak driver (the periodic dial threads keep their own
   cadence).  Returns how many peers completed a round. *)
let sync_now t =
  List.fold_left
    (fun ok peer ->
      match connect_peer t peer with
      | Error m ->
          peer.p_last_error <- Some m;
          ok
      | Ok fd ->
          Fun.protect
            ~finally:(fun () -> close_quietly fd)
            (fun () ->
              match handshake_peer t peer fd with
              | Error m ->
                  peer.p_last_error <- Some m;
                  ok
              | Ok () -> (
                  match do_round t peer fd with
                  | Ok () ->
                      let (_ : (unit, string) result) =
                        send t fd Proto.Bye
                      in
                      ok + 1
                  | Error m ->
                      peer.p_last_error <- Some m;
                      ok)))
    0 t.peers

(* --- the /peers.json snapshot --- *)

let peer_json p =
  let state, backoff_s =
    match p.p_state with
    | Idle -> ("idle", None)
    | Connecting -> ("connecting", None)
    | Connected -> ("connected", None)
    | Backoff d -> ("backoff", Some d)
  in
  J.Obj
    ([
       ("host", J.String p.p_host);
       ("port", J.Int p.p_port);
       ("state", J.String state);
       ("attempts", J.Int p.p_attempts);
       ("rounds", J.Int p.p_rounds);
     ]
    @ (match backoff_s with
      | Some d -> [ ("backoff_s", J.Float d) ]
      | None -> [])
    @ (match p.p_node_id with
      | Some id -> [ ("node_id", J.String id) ]
      | None -> [])
    @
    match p.p_last_error with
    | Some m -> [ ("last_error", J.String m) ]
    | None -> [])

let peers_json t =
  J.Obj
    [
      ("node_id", J.String t.node_id);
      ("backend", J.String Backend.default_key);
      ("protocol", J.String Proto.magic);
      ("port", J.Int t.bound_port);
      ("store_keys", J.Int (List.length (keys t)));
      ("store_digest", J.Int (digest t));
      ("peers", J.List (List.map peer_json t.peers));
    ]

(* --- lifecycle --- *)

let create ?(registry = R.default) ?(interval_s = 1.0)
    ?(idle_timeout_s = 60.0) ?(addr = "127.0.0.1") ?backend:_ ~node_id ~port
    ~peers () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let inet = Unix.inet_addr_of_string addr in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (inet, port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_addr = Unix.getsockname fd in
  let bound_port =
    match bound_addr with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let peers =
    List.map
      (fun (host, port) ->
        {
          p_host = host;
          p_port = port;
          p_state = Idle;
          p_node_id = None;
          p_attempts = 0;
          p_rounds = 0;
          p_last_error = None;
        })
      peers
  in
  let t =
    {
      node_id;
      interval_s;
      idle_timeout_s;
      m = metrics registry;
      mutex = Mutex.create ();
      store = KV.empty;
      stopping = false;
      listen_fd = fd;
      bound_addr;
      bound_port;
      peers;
      accept_thread = None;
      dial_threads = [];
      conn_threads = [];
    }
  in
  refresh_store_gauges t;
  refresh_peer_gauge t;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

(* Start the periodic dial threads (separate from [create] so a node
   can be driven purely by [sync_now]). *)
let start_dialers t =
  t.dial_threads <-
    List.map
      (fun peer ->
        Thread.create
          (fun () -> dial_loop t peer ~delay:initial_backoff_s)
          ())
      t.peers

let stop t =
  let already =
    locked t (fun () ->
        let s = t.stopping in
        t.stopping <- true;
        s)
  in
  if not already then begin
    (* wake the accept loop with a throwaway connection to ourselves *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd t.bound_addr with Unix.Unix_error _ -> ());
       (try Unix.close fd with Unix.Unix_error _ -> ())
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    List.iter Thread.join t.dial_threads;
    (* a responder blocked in a read (or fed by a peer that keeps the
       session busy) must not pin the join: shutting the socket down
       fails its next recv immediately.  Done under the lock, so only
       live, not-yet-closed descriptors are touched. *)
    let threads =
      locked t (fun () ->
          List.map
            (fun (_, (th, fd)) ->
              (try Unix.shutdown fd Unix.SHUTDOWN_ALL
               with Unix.Unix_error _ -> ());
              th)
            t.conn_threads)
    in
    List.iter Thread.join threads
  end

(* Kept for replbench, which names the node [Node.Make (B)]. *)
module Make (_ : Backend.S) = struct
  module KV = KV

  type nonrec t = t

  let create = create

  let sync_now = sync_now

  let port = port

  let put = put

  let get = get

  let keys = keys

  let digest = digest

  let stop = stop
end
