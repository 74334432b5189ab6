open Vstamp_core
open Vstamp_codec

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- Bitio --- *)

let test_bit_roundtrip () =
  let w = Bitio.Writer.create () in
  List.iter (Bitio.Writer.bit w) [ true; false; true; true; false ];
  check_int "bit_length" 5 (Bitio.Writer.bit_length w);
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  List.iter
    (fun expected -> check_bool "bit" expected (Bitio.Reader.bit r))
    [ true; false; true; true; false ]

let test_bits_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w ~value:0b1011 ~width:4;
  Bitio.Writer.bits w ~value:0 ~width:3;
  Bitio.Writer.bits w ~value:12345 ~width:20;
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  check_int "4 bits" 0b1011 (Bitio.Reader.bits r ~width:4);
  check_int "3 bits" 0 (Bitio.Reader.bits r ~width:3);
  check_int "20 bits" 12345 (Bitio.Reader.bits r ~width:20)

let test_varint_roundtrip () =
  let values = [ 0; 1; 15; 16; 255; 256; 65535; 1 lsl 30 ] in
  let w = Bitio.Writer.create () in
  List.iter (Bitio.Writer.varint w) values;
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  List.iter (fun v -> check_int "varint" v (Bitio.Reader.varint r)) values

let test_varint_sizes () =
  check_int "small varint is 5 bits" 5 (Bitio.round_trip_bits 7);
  check_int "16 needs two groups" 10 (Bitio.round_trip_bits 16)

let test_truncated () =
  let r = Bitio.Reader.of_string "" in
  Alcotest.check_raises "empty" Bitio.Truncated (fun () ->
      ignore (Bitio.Reader.bit r));
  let r = Bitio.Reader.of_string "\xff" in
  check_int "remaining" 8 (Bitio.Reader.remaining_bits r);
  ignore (Bitio.Reader.bits r ~width:8);
  Alcotest.check_raises "past end" Bitio.Truncated (fun () ->
      ignore (Bitio.Reader.bit r))

let test_writer_validation () =
  let w = Bitio.Writer.create () in
  Alcotest.check_raises "negative varint"
    (Invalid_argument "Bitio.Writer.varint: negative") (fun () ->
      Bitio.Writer.varint w (-1));
  Alcotest.check_raises "negative bits"
    (Invalid_argument "Bitio.Writer.bits: negative value") (fun () ->
      Bitio.Writer.bits w ~value:(-1) ~width:4)

(* --- Wire: names --- *)

let names =
  List.map Name_tree.of_strings
    [
      [];
      [ "" ];
      [ "0" ];
      [ "1" ];
      [ "0"; "1" ];
      [ "00"; "01"; "1" ];
      [ "000"; "010"; "011"; "10" ];
      [ "010101" ];
    ]

let test_wire_name_roundtrip () =
  List.iter
    (fun n ->
      match Wire.name_of_string (Wire.name_to_string n) with
      | Ok n' ->
          check_bool
            ("round trip " ^ Name_tree.to_string n)
            true (Name_tree.equal n n')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    names

let test_wire_name_sizes () =
  check_int "empty is 2 bits" 2 (Wire.name_bits Name_tree.empty);
  check_int "bottom is 2 bits" 2 (Wire.name_bits Name_tree.bottom);
  (* {0,1} = Node(Mark,Mark): 1 + 2 + 2 *)
  check_int "{0,1} is 5 bits" 5 (Wire.name_bits (Name_tree.of_strings [ "0"; "1" ]))

let test_wire_name_truncated () =
  match Wire.name_of_string "" with
  | Error Wire.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

(* --- Wire: stamps --- *)

let stamps =
  let n = Name_tree.of_strings in
  [
    Stamp.seed;
    Stamp.make ~update:(n [ "1" ]) ~id:(n [ "01"; "1" ]);
    Stamp.make ~update:(n []) ~id:(n [ "0" ]);
    Stamp.make ~update:(n [ "00"; "01" ]) ~id:(n [ "00"; "01"; "1" ]);
  ]

let test_wire_stamp_roundtrip () =
  List.iter
    (fun s ->
      match Wire.stamp_of_string (Wire.stamp_to_string s) with
      | Ok s' ->
          check_bool ("round trip " ^ Stamp.to_string s) true (Stamp.equal s s')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    stamps

let test_wire_stamp_rejects_bad_i1 () =
  let bad =
    Stamp.make_unchecked
      ~update:(Name_tree.of_strings [ "0" ])
      ~id:(Name_tree.of_strings [ "1" ])
  in
  (match Wire.stamp_of_string (Wire.stamp_to_string bad) with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "expected Malformed");
  match Wire.stamp_of_string ~validate:false (Wire.stamp_to_string bad) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "validation off should accept"

let test_wire_stamp_bits_close_to_size () =
  (* encoded size tracks the structural size metric *)
  List.iter
    (fun s ->
      let bits = Wire.stamp_bits s in
      check_bool "within structural bound" true
        (bits <= (4 * (Stamp.size_bits s + 4)) && bits >= 4))
    stamps

(* --- Wire: golden vectors --- *)

(* The vstamp-sync/1 bytes, pinned: round trips alone would accept any
   self-consistent format, so these literals are the format guard. *)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

(* fork (update s), then join the two halves without reduction: ids
   fragment one digit deeper per step *)
let deep_stamp depth =
  let rec go s k =
    if k = 0 then s
    else
      let a, b = Stamp.fork (Stamp.update s) in
      go (Stamp.join ~reduce:false (Stamp.update a) b) (k - 1)
  in
  go Stamp.seed depth

let deep8_hex =
  "ff4a694e94d29e94d29d29a53e94d29d29a53d29a53a534a7e94d29d29a53d29a53a534a7"
  ^ "d29a53a534a7a534a74a694fe94d29d29a53d29a53a534a7d29a53a534a7a534a74a694f"
  ^ "d29a53a534a7a534a74a694fa534a74a694f4a694e94d29feb5d6bd6bad7d6bad7ad75af"
  ^ "d6bad7ad75afad75af5aeb5fd6bad7ad75afad75af5aeb5fad75af5aeb5f5aeb5eb5d6bf"
  ^ "d6bad7ad75afad75af5aeb5fad75af5aeb5f5aeb5eb5d6bfad75af5aeb5f5aeb5eb5d6bf"
  ^ "5aeb5eb5d6beb5d6bd6bad4"

let check_golden s expected =
  let bytes = Wire.stamp_to_string s in
  Alcotest.(check string)
    ("bytes of " ^ Stamp.to_string s)
    expected (hex bytes);
  match Wire.stamp_of_string bytes with
  | Ok s' -> check_bool "golden bytes decode back" true (Stamp.equal s s')
  | Error e -> Alcotest.failf "golden decode failed: %a" Wire.pp_error e

let test_wire_golden_stamps () =
  List.iter2 check_golden stamps [ "50"; "8e28"; "28"; "d4d5" ]

let test_wire_golden_deep () =
  let s = deep_stamp 8 in
  check_golden s deep8_hex;
  (* the paper's space metric is not the wire size *)
  check_int "size_bits (paper metric)" 3072 (Stamp.size_bits s);
  check_int "stamp_bits (encoded)" 1534 (Wire.stamp_bits s);
  check_int "encoded bytes" 192 (String.length (Wire.stamp_to_string s))

let test_wire_golden_hello () =
  let module P = Vstamp_net.Proto in
  let h =
    { P.node_id = "n1"; backend = Backend.default_key; proto = P.version }
  in
  Alcotest.(check string) "Hello"
    "010d767374616d702d73796e632f3101026e310474726565"
    (hex (P.encode (P.Hello h)))

(* --- Wire: version vectors --- *)

let test_wire_vv_roundtrip () =
  let open Vstamp_vv in
  List.iter
    (fun entries ->
      let vv = Version_vector.of_list entries in
      match Wire.vv_of_string (Wire.vv_to_string vv) with
      | Ok vv' -> check_bool "round trip" true (Version_vector.equal vv vv')
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e)
    [ []; [ (0, 1) ]; [ (0, 2); (3, 1); (17, 300) ] ]

(* --- Text --- *)

let test_text_print_parse () =
  List.iter
    (fun s ->
      match Text.stamp_of_string (Text.stamp_to_string s) with
      | Ok s' -> check_bool (Stamp.to_string s) true (Stamp.equal s s')
      | Error e -> Alcotest.failf "parse failed: %a" Text.pp_error e)
    stamps

let test_text_inputs () =
  let ok input expected =
    match Text.stamp_of_string input with
    | Ok s -> Alcotest.(check string) input expected (Stamp.to_string s)
    | Error e -> Alcotest.failf "parse of %S failed: %a" input Text.pp_error e
  in
  ok "[e|e]" "[\xce\xb5|\xce\xb5]";
  ok "[\xce\xb5|\xce\xb5]" "[\xce\xb5|\xce\xb5]";
  ok "[1|01+1]" "[1|01+1]";
  ok "[ 1 | 00 + 01 + 1 ]" "[1|00+01+1]";
  ok "[0/|0]" "[\xc3\xb8|0]";
  ok "[\xc3\xb8|0]" "[\xc3\xb8|0]"

let test_text_rejects () =
  let fails input =
    match Text.stamp_of_string input with
    | Error _ -> ()
    | Ok s -> Alcotest.failf "%S should not parse, got %s" input (Stamp.to_string s)
  in
  fails "";
  fails "[e|e";
  fails "e|e]";
  fails "[e e]";
  fails "[2|1]";
  fails "[0|1]" (* violates I1 *);
  fails "[e|0+01]" (* not an antichain *);
  fails "[e|e] trailing"

let test_text_name () =
  (match Text.name_of_string "00+01+1" with
  | Ok n -> Alcotest.(check string) "name" "00+01+1" (Text.name_to_string n)
  | Error e -> Alcotest.failf "parse failed: %a" Text.pp_error e);
  match Text.name_of_string "0+01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-antichain should be rejected"

(* --- properties --- *)

let prop_wire_name_roundtrip =
  QCheck2.Test.make ~name:"wire name round trip" ~count:500
    (Vstamp_test_support.Gen.name_tree ())
    (fun n ->
      match Wire.name_of_string (Wire.name_to_string n) with
      | Ok n' -> Name_tree.equal n n'
      | Error _ -> false)

let prop_wire_name_canonical =
  QCheck2.Test.make ~name:"wire encoding is canonical (re-encode identical)"
    ~count:500
    (Vstamp_test_support.Gen.name_tree ())
    (fun n ->
      let enc = Wire.name_to_string n in
      match Wire.name_of_string enc with
      | Ok n' -> String.equal enc (Wire.name_to_string n')
      | Error _ -> false)

let prop_wire_stamp_roundtrip_traces =
  QCheck2.Test.make ~name:"wire stamp round trip along traces" ~count:200
    ~print:Vstamp_test_support.Gen.trace_print
    (Vstamp_test_support.Gen.trace ())
    (fun ops ->
      List.for_all
        (fun s ->
          match Wire.stamp_of_string (Wire.stamp_to_string s) with
          | Ok s' -> Stamp.equal s s'
          | Error _ -> false)
        (Execution.Run_stamps.run ops))

let prop_text_roundtrip =
  QCheck2.Test.make ~name:"text stamp round trip along traces" ~count:200
    ~print:Vstamp_test_support.Gen.trace_print
    (Vstamp_test_support.Gen.trace ())
    (fun ops ->
      List.for_all
        (fun s ->
          match Text.stamp_of_string (Text.stamp_to_string s) with
          | Ok s' -> Stamp.equal s s'
          | Error _ -> false)
        (Execution.Run_stamps.run ops))

let prop_varint_roundtrip =
  QCheck2.Test.make ~name:"varint round trip" ~count:500
    QCheck2.Gen.(int_bound ((1 lsl 30) - 1))
    (fun v ->
      let w = Bitio.Writer.create () in
      Bitio.Writer.varint w v;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      Bitio.Reader.varint r = v)

let () =
  Alcotest.run "codec"
    [
      ( "bitio",
        [
          Alcotest.test_case "bit round trip" `Quick test_bit_roundtrip;
          Alcotest.test_case "bits round trip" `Quick test_bits_roundtrip;
          Alcotest.test_case "varint round trip" `Quick test_varint_roundtrip;
          Alcotest.test_case "varint sizes" `Quick test_varint_sizes;
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "writer validation" `Quick test_writer_validation;
        ] );
      ( "wire",
        [
          Alcotest.test_case "name round trip" `Quick test_wire_name_roundtrip;
          Alcotest.test_case "name sizes" `Quick test_wire_name_sizes;
          Alcotest.test_case "name truncated" `Quick test_wire_name_truncated;
          Alcotest.test_case "stamp round trip" `Quick test_wire_stamp_roundtrip;
          Alcotest.test_case "stamp rejects bad I1" `Quick
            test_wire_stamp_rejects_bad_i1;
          Alcotest.test_case "stamp bits sane" `Quick
            test_wire_stamp_bits_close_to_size;
          Alcotest.test_case "vv round trip" `Quick test_wire_vv_roundtrip;
        ] );
      ( "golden format",
        [
          Alcotest.test_case "codec test stamps" `Quick test_wire_golden_stamps;
          Alcotest.test_case "depth-8 stamp" `Quick test_wire_golden_deep;
          Alcotest.test_case "hello" `Quick test_wire_golden_hello;
        ] );
      ( "text",
        [
          Alcotest.test_case "print/parse" `Quick test_text_print_parse;
          Alcotest.test_case "accepted inputs" `Quick test_text_inputs;
          Alcotest.test_case "rejected inputs" `Quick test_text_rejects;
          Alcotest.test_case "names" `Quick test_text_name;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_wire_name_roundtrip;
            prop_wire_name_canonical;
            prop_wire_stamp_roundtrip_traces;
            prop_text_roundtrip;
            prop_varint_roundtrip;
          ] );
    ]
