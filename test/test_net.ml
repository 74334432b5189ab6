(* The [vstamp-sync/1] wire: framing and message codec totality under
   hostile input (truncation, oversized length announcements, bit
   flips), handshake rejection semantics, and real-TCP convergence of
   [Vstamp_net.Node] replicas on loopback. *)

open Vstamp_net
module Registry = Vstamp_obs.Registry
module Metric = Vstamp_obs.Metric
module N = Node

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- framing --- *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match Frame.decode (Frame.encode payload) with
      | Ok (p, consumed) ->
          Alcotest.(check string) "payload" payload p;
          check_int "consumed" (Frame.header_len + String.length payload) consumed
      | Error e -> Alcotest.failf "roundtrip failed: %a" Frame.pp_error e)
    [ ""; "x"; String.make 1000 '\xff'; Proto.encode Proto.Bye ]

let test_frame_truncated () =
  let wire = Frame.encode "hello world" in
  for cut = 0 to String.length wire - 1 do
    match Frame.decode (String.sub wire 0 cut) with
    | Error Frame.Truncated -> ()
    | Ok _ -> Alcotest.failf "cut at %d decoded" cut
    | Error e -> Alcotest.failf "cut at %d: %a" cut Frame.pp_error e
  done

let test_frame_oversized () =
  (* a header announcing more than the cap must be rejected before any
     allocation of that size *)
  let huge = "\x7f\xff\xff\xff" ^ "payload" in
  match Frame.decode huge with
  | Error (Frame.Oversized n) ->
      check_bool "announced length" true (n > Frame.max_payload)
  | Ok _ | Error _ -> Alcotest.fail "oversized frame accepted"

let gen_bytes =
  QCheck2.Gen.(map Bytes.unsafe_to_string (bytes_size (int_bound 64)))

let prop_frame_decode_total =
  QCheck2.Test.make ~name:"frame decoder is total" ~count:2000 gen_bytes
    (fun input ->
      match Frame.decode input with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* --- message codec --- *)

let sample_hello = { Proto.node_id = "n1"; backend = "tree"; proto = 1 }

let sample_msgs =
  [
    Proto.Hello sample_hello;
    Proto.Hello_ack { sample_hello with node_id = "n2" };
    Proto.Offer ("", []);
    Proto.Offer ("vstamp-trace/1;t;s;n", [ ("k", "stamp-bytes", "digest") ]);
    Proto.Want [];
    Proto.Want [ "a"; "b" ];
    Proto.Items [ ("k", "stamp", [ "v1"; "v2" ]); ("l", "s", []) ];
    Proto.Result [ ("k", "stamp", [ "v" ]) ];
    Proto.Bye;
  ]

let test_proto_roundtrip () =
  List.iter
    (fun msg ->
      match Proto.decode (Proto.encode msg) with
      | Ok m -> check_bool "roundtrip" true (m = msg)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_msgs

let test_proto_rejects_bad_magic () =
  let m = Proto.encode (Proto.Hello sample_hello) in
  (* corrupt one magic byte: the handshake must not parse *)
  let bad = Bytes.of_string m in
  Bytes.set bad 2 'X';
  match Proto.decode (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hello with corrupted magic decoded"

let prop_proto_decode_total =
  QCheck2.Test.make ~name:"message decoder is total" ~count:2000 gen_bytes
    (fun input ->
      match Proto.decode input with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let gen_msg = QCheck2.Gen.oneofl sample_msgs

let prop_proto_bitflip =
  QCheck2.Test.make ~name:"bit-flipped messages never raise" ~count:1000
    QCheck2.Gen.(triple gen_msg (int_bound 1000) (int_bound 7))
    (fun (msg, at, bit) ->
      let s = Bytes.of_string (Proto.encode msg) in
      let at = at mod Bytes.length s in
      Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor (1 lsl bit)));
      match Proto.decode (Bytes.to_string s) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_proto_truncation =
  QCheck2.Test.make ~name:"truncated messages never decode" ~count:1000
    QCheck2.Gen.(pair gen_msg (int_bound 1000))
    (fun (msg, cut) ->
      let s = Proto.encode msg in
      let cut = cut mod String.length s in
      match Proto.decode (String.sub s 0 cut) with
      | Error _ -> true
      | Ok _ -> String.length s = 0
      | exception _ -> false)

(* --- live nodes on loopback --- *)

let with_node ?(peers = fun _ -> []) ~registry ~node_id f =
  let t =
    N.create ~registry ~interval_s:0.05 ~idle_timeout_s:5.0 ~node_id ~port:0
      ~peers:(peers ()) ()
  in
  Fun.protect ~finally:(fun () -> N.stop t) (fun () -> f t)

let counter r name = Metric.count (Registry.counter r name)

let test_two_nodes_converge () =
  let ra = Registry.create () and rb = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          (* bootstrap: replicate the shared key so later writes are
             genuinely concurrent (independently created keys carry
             identical seed stamps and would not conflict) *)
          N.put a ~key:"shared" "base";
          check_int "bootstrap round" 1 (N.sync_now b);
          N.put a ~key:"only-a" "1";
          N.put b ~key:"only-b" "2";
          N.put a ~key:"shared" "from-a";
          N.put b ~key:"shared" "from-b";
          check_int "one peer round" 1 (N.sync_now b);
          Alcotest.(check (list string))
            "a has b's key" [ "2" ] (N.get a "only-b");
          Alcotest.(check (list string))
            "b has a's key" [ "1" ] (N.get b "only-a");
          Alcotest.(check (list string))
            "conflict surfaced both sides"
            [ "from-a"; "from-b" ]
            (List.sort compare (N.get b "shared"));
          check_bool "digests equal" true (N.digest a = N.digest b);
          check_bool "initiator counted rounds" true
            (counter rb "net_rounds_total" = 2);
          check_bool "responder accounted the sessions" true
            (counter ra "net_sync_rounds_total" = 2);
          check_bool "responder shipped bytes" true
            (counter ra "net_sync_shipped_bytes_total" > 0);
          check_bool "bytes moved both ways" true
            (counter rb "net_tx_bytes_total" > 0
            && counter rb "net_rx_bytes_total" > 0);
          (* a second round over converged stores ships no payload *)
          let s0 = counter ra "net_sync_minimal_bytes_total" in
          check_int "second round" 1 (N.sync_now b);
          check_int "minimal delta unchanged" s0
            (counter ra "net_sync_minimal_bytes_total")))

let drain_read fd =
  let b = Bytes.create 256 in
  let rec go n =
    if n > 200 then n
    else
      match Unix.read fd b 0 256 with
      | 0 -> n
      | r -> go (n + r)
      | exception Unix.Unix_error _ -> n
  in
  go 0

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_handshake_version_rejected () =
  let r = Registry.create () in
  with_node ~registry:r ~node_id:"a" (fun a ->
      let fd = connect (N.port a) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let hello =
            Proto.Hello { Proto.node_id = "evil"; backend = "tree"; proto = 99 }
          in
          (match Frame.write fd (Proto.encode hello) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "write: %a" Frame.pp_error e);
          (* no Hello_ack: the node closes without replying *)
          check_int "connection closed, nothing sent" 0 (drain_read fd);
          check_bool "protocol error counted" true
            (counter r "net_protocol_errors_total" >= 1)))

let test_garbage_frame_rejected () =
  let r = Registry.create () in
  with_node ~registry:r ~node_id:"a" (fun a ->
      let fd = connect (N.port a) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (match Frame.write fd "\x2a not a message" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "write: %a" Frame.pp_error e);
          check_int "connection closed, nothing sent" 0 (drain_read fd);
          check_bool "protocol error counted" true
            (counter r "net_protocol_errors_total" >= 1)))

let rec wait_for ?(tries = 100) pred =
  if tries = 0 then false
  else if pred () then true
  else begin
    Thread.delay 0.05;
    wait_for ~tries:(tries - 1) pred
  end

let test_dialer_backoff_on_dead_peer () =
  let r = Registry.create () in
  (* a port nobody listens on: grab one, then close it *)
  let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let dead_port =
    match Unix.getsockname probe with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close probe;
  with_node ~registry:r ~node_id:"a"
    ~peers:(fun () -> [ ("127.0.0.1", dead_port) ])
    (fun a ->
      N.start_dialers a;
      check_bool "reconnects counted" true
        (wait_for (fun () -> counter r "net_reconnects_total" >= 2));
      match N.peers_json a with
      | Vstamp_obs.Jsonx.Obj fields -> (
          match List.assoc "peers" fields with
          | Vstamp_obs.Jsonx.List [ Vstamp_obs.Jsonx.Obj peer ] ->
              let state =
                match List.assoc "state" peer with
                | Vstamp_obs.Jsonx.String s -> s
                | _ -> "?"
              in
              check_bool "backing off or redialing" true
                (List.mem state [ "backoff"; "connecting" ]);
              check_bool "attempts visible" true
                (match List.assoc "attempts" peer with
                | Vstamp_obs.Jsonx.Int n -> n >= 1
                | _ -> false);
              check_bool "last_error recorded" true
                (List.mem_assoc "last_error" peer)
          | _ -> Alcotest.fail "peers array shape")
      | _ -> Alcotest.fail "peers_json shape")

let test_dialer_recovers_and_syncs () =
  let ra = Registry.create () and rb = Registry.create () in
  with_node ~registry:ra ~node_id:"a" (fun a ->
      N.put a ~key:"k" "from-a";
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          N.start_dialers b;
          check_bool "periodic rounds converge" true
            (wait_for (fun () -> N.get b "k" = [ "from-a" ]))))

(* Stopping a responder whose peer keeps hammering it with rounds must
   return promptly: the stop path shuts the live connections down
   rather than waiting for the sessions to go quiet. *)
let test_stop_responder_under_load () =
  let ra = Registry.create () and rb = Registry.create () in
  let a =
    N.create ~registry:ra ~interval_s:0.01 ~idle_timeout_s:5.0 ~node_id:"a"
      ~port:0 ~peers:[] ()
  in
  Fun.protect
    ~finally:(fun () -> N.stop a (* idempotent *))
    (fun () ->
      with_node ~registry:rb ~node_id:"b"
        ~peers:(fun () -> [ ("127.0.0.1", N.port a) ])
        (fun b ->
          N.put a ~key:"k" "v";
          N.start_dialers b;
          check_bool "dialer reached the responder" true
            (wait_for (fun () -> N.get b "k" = [ "v" ]));
          let t0 = Unix.gettimeofday () in
          N.stop a;
          check_bool "stop returned promptly under load" true
            (Unix.gettimeofday () -. t0 < 4.0)))

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncation" `Quick test_frame_truncated;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          QCheck_alcotest.to_alcotest prop_frame_decode_total;
        ] );
      ( "proto",
        [
          Alcotest.test_case "roundtrip" `Quick test_proto_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_proto_rejects_bad_magic;
          QCheck_alcotest.to_alcotest prop_proto_decode_total;
          QCheck_alcotest.to_alcotest prop_proto_bitflip;
          QCheck_alcotest.to_alcotest prop_proto_truncation;
        ] );
      ( "nodes",
        [
          Alcotest.test_case "two nodes converge" `Quick test_two_nodes_converge;
          Alcotest.test_case "handshake version rejected" `Quick
            test_handshake_version_rejected;
          Alcotest.test_case "garbage frame rejected" `Quick
            test_garbage_frame_rejected;
          Alcotest.test_case "backoff on dead peer" `Quick
            test_dialer_backoff_on_dead_peer;
          Alcotest.test_case "dialer syncs periodically" `Quick
            test_dialer_recovers_and_syncs;
          Alcotest.test_case "stop responder under load" `Quick
            test_stop_responder_under_load;
        ] );
    ]
