(* The replication benchmark: clusters of real [vstamp serve] nodes
   ([Vstamp_net.Node] over loopback TCP, default backend) driven from
   outside through [put], [sync_now], [keys] and [get].

   Each workload runs a seeded schedule of episodes in a closed loop:
   a write batch (or a fresh replica joining), then back-to-back
   [sync_now] rounds until every replica holds identical content.  One
   benchmark thread, at most one sync connection open at a time; all
   nodes share the process.  Convergence and correctness are decided by
   comparing full [keys]/[get] content outside the timed region, never
   by [Node.digest].

   With [--trace 1] the same schedule also runs through {!Replay},
   which re-runs every session layer by layer and reports per-layer
   metrics instead of the end-to-end ones.  See README.md. *)

open Sut
module R = Vstamp_obs.Registry
module M = Vstamp_obs.Metric

(* --- workloads --- *)

(* Which keys a mesh node overwrites in an episode. *)
type writes =
  | Uniform of int  (* this many distinct keys, drawn uniformly *)
  | Window of int * int
      (* (width, stride): at step s of its cycle, node i overwrites
         [width] consecutive keys of a seeded permutation, starting at
         [(i + s) * stride]; neighbouring nodes overlap by
         [width - stride] keys *)

type kind =
  | Mesh of { replicas : int; writes : writes }
      (* each episode is a write batch on every replica *)
  | Catch_up  (* one seed node; each episode a fresh replica joins it *)

type workload = {
  name : string;
  kind : kind;
  keys : int;  (* keys seeded before the first episode *)
  value_bytes : int;
  cycle : int;  (* episodes per fresh cluster; 0: one cluster per run *)
  episodes_per_s : float;  (* schedule length per measured second *)
  setup_reps : int;  (* clusters built for the setup_s median *)
}

let workloads =
  [
    {
      name = "sparse-dirty";
      kind = Mesh { replicas = 3; writes = Uniform 20 };
      keys = 6000;
      value_bytes = 128;
      cycle = 0;
      episodes_per_s = 2.2;
      setup_reps = 3;
    };
    {
      name = "hot-conflict";
      kind = Mesh { replicas = 3; writes = Window (16, 4) };
      keys = 64;
      value_bytes = 64;
      cycle = 9;
      episodes_per_s = 10.;
      setup_reps = 20;
    };
    {
      name = "catch-up";
      kind = Catch_up;
      keys = 2000;
      value_bytes = 4096;
      cycle = 16;
      episodes_per_s = 10.;
      setup_reps = 3;
    };
  ]

(* Rounds after which an episode that has not converged counts as
   divergent. *)
let max_rounds = 8

let key k = Printf.sprintf "k%05d" k

(* A value unique to its write: a tag, then seeded filler. *)
let value rng ~tag n =
  let b = Bytes.create (max n (String.length tag)) in
  Bytes.blit_string tag 0 b 0 (String.length tag);
  for i = String.length tag to Bytes.length b - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (97 + Random.State.int rng 26))
  done;
  Bytes.unsafe_to_string b

let distinct rng ~n k =
  let rec go acc left =
    if left = 0 then List.rev acc
    else
      let x = Random.State.int rng n in
      if List.mem x acc then go acc left else go (x :: acc) (left - 1)
  in
  go [] k

(* --- live nodes --- *)

type node = {
  nname : string;
  reg : R.t;
  n : N.t;
  peers : string list;  (* names, in the order sync_now dials them *)
}

let start ~name ~peers =
  let reg = R.create () in
  let n =
    N.create ~registry:reg ~interval_s:3600. ~idle_timeout_s:30.
      ~node_id:name ~backend:backend_key ~port:0
      ~peers:(List.map (fun p -> ("127.0.0.1", N.port p.n)) peers)
      ()
  in
  { nname = name; reg; n; peers = List.map (fun p -> p.nname) peers }

let counter nd name = M.count (R.counter nd.reg name)

let total nodes name =
  List.fold_left (fun acc nd -> acc + counter nd name) 0 nodes

let content nd =
  List.map (fun k -> (k, List.sort compare (N.get nd.n k))) (N.keys nd.n)

(* A responder counts its last bytes after the initiator's [sync_now]
   has returned; wait until every byte sent has also been counted as
   received, so the byte totals are settled. *)
let settle nodes ~tx0 ~rx0 =
  let deadline = now () +. 5. in
  let rec go () =
    let tx = total nodes "net_tx_bytes_total" - tx0
    and rx = total nodes "net_rx_bytes_total" - rx0 in
    if tx = rx then true
    else if now () > deadline then false
    else (
      Thread.yield ();
      go ())
  in
  go ()

(* --- run accounting --- *)

type acc = {
  mutable setup : float list;  (* s per cluster built *)
  mutable converge : float list;  (* ms per episode *)
  mutable puts : float list;  (* us per Node.put *)
  mutable converge_s : float;
  mutable cpu_s : float;
  mutable minor_words : float;
  mutable major : int;
  mutable episodes : int;
  mutable tx : int;
  mutable delivered : int;  (* value bytes new to the replica holding them *)
  mutable attempted : int;  (* sessions *)
  mutable failed_sessions : int;
  mutable proto_errors : int;
  mutable divergent : int;  (* episodes not ending in the expected content *)
  mutable unfaithful : int;  (* episodes the replay did not reproduce *)
  mutable sync_now_s : float;
  mutable sessions : int;
  mutable gauge_s : float;  (* estimated store-gauge refreshes in sessions *)
  mutable shipped : int;
  mutable minimal : int;
}

let acc () =
  {
    setup = [];
    converge = [];
    puts = [];
    converge_s = 0.;
    cpu_s = 0.;
    minor_words = 0.;
    major = 0;
    episodes = 0;
    tx = 0;
    delivered = 0;
    attempted = 0;
    failed_sessions = 0;
    proto_errors = 0;
    divergent = 0;
    unfaithful = 0;
    sync_now_s = 0.;
    sessions = 0;
    gauge_s = 0.;
    shipped = 0;
    minimal = 0;
  }

(* Time [f], charging its CPU and allocation to the run. *)
let measure a f =
  let g0 = Gc.quick_stat () and c0 = cpu () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let c1 = cpu () and g1 = Gc.quick_stat () in
  a.cpu_s <- a.cpu_s +. (c1 -. c0);
  a.minor_words <- a.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  a.major <- a.major + (g1.Gc.major_collections - g0.Gc.major_collections);
  (r, dt)

(* --- a cluster: live nodes plus, when tracing, their replay --- *)

type cluster = {
  mutable nodes : node list;
  replay : Replay.t option;
  model : (string, string list) Hashtbl.t;  (* expected content *)
}

(* Overwrite keys on the live nodes, one timed [Node.put] each, then
   feed the same batches to the replay. *)
let put_all a c (writes : (node * (string * string) list) list) =
  let (), _ =
    measure a (fun () ->
        List.iter
          (fun (nd, ws) ->
            List.iter
              (fun (k, v) ->
                let t = now () in
                N.put nd.n ~key:k v;
                a.puts <- ((now () -. t) *. 1e6) :: a.puts)
              ws)
          writes)
  in
  Option.iter
    (fun r -> List.iter (fun (nd, ws) -> Replay.put r nd.nname ws) writes)
    c.replay

(* One [sync_now] from [nd]; returns its wall time.  The replay re-runs
   the same sessions afterwards, outside the timed call. *)
let sync a c nd =
  let ok, dt = measure a (fun () -> N.sync_now nd.n) in
  let peers = List.length nd.peers in
  a.attempted <- a.attempted + peers;
  a.failed_sessions <- a.failed_sessions + (peers - ok);
  a.sync_now_s <- a.sync_now_s +. dt;
  a.sessions <- a.sessions + ok;
  Option.iter
    (fun r ->
      List.iter
        (fun p -> Replay.session r ~initiator:nd.nname ~responder:p)
        nd.peers)
    c.replay;
  dt

let model_content c =
  List.sort compare (Hashtbl.fold (fun k vs acc -> (k, vs) :: acc) c.model [])

(* Back-to-back rounds until every replica holds the model's content.
   A round is one [sync_now] from every node that dials peers.  Returns
   the summed wall time of the rounds and whether they converged. *)
let converge a c =
  let expected = model_content c in
  let dialers = List.rev (List.filter (fun nd -> nd.peers <> []) c.nodes) in
  let rec go rounds t =
    if rounds >= max_rounds then (t, false)
    else
      let t = List.fold_left (fun t nd -> t +. sync a c nd) t dialers in
      if List.for_all (fun nd -> content nd = expected) c.nodes then (t, true)
      else go (rounds + 1) t
  in
  go 0 0.

(* The replay reproduced the episode: the same frame bytes and, on
   every replica, the same content. *)
let faithful c ~bytes ~tx =
  match c.replay with
  | None -> true
  | Some r ->
      bytes = tx
      && List.for_all
           (fun nd -> Replay.content r nd.nname = content nd)
           c.nodes

let stop c = List.iter (fun nd -> N.stop nd.n) c.nodes

(* Build a cluster, seed it and reach the first convergence; the wall
   time of the three is one setup sample. *)
let build w a ~trace ~tr seed_data =
  let t0 = now () in
  let replay = if trace then Some (Replay.create tr) else None in
  let c = { nodes = []; replay; model = Hashtbl.create w.keys } in
  let joined nd =
    c.nodes <- c.nodes @ [ nd ];
    Option.iter (fun r -> Replay.add r nd.nname) replay
  in
  match w.kind with
  | Catch_up ->
      let seed = start ~name:"seed" ~peers:[] in
      joined seed;
      let writes =
        Array.to_list (Array.mapi (fun k v -> (key k, v)) seed_data)
      in
      List.iter (fun (k, v) -> Hashtbl.replace c.model k [ v ]) writes;
      (* the seeding puts of a catch-up seed are its Node.put samples *)
      tr.Tracer.on <- trace;
      put_all a c [ (seed, writes) ];
      tr.Tracer.on <- false;
      (c, now () -. t0)
  | Mesh { replicas; _ } ->
      (* node i dials every node built before it, nearest first, so
         every pair of replicas shares a link *)
      for i = 0 to replicas - 1 do
        joined (start ~name:(Printf.sprintf "n%d" i) ~peers:(List.rev c.nodes))
      done;
      let setup = acc () in
      put_all setup c
        (List.mapi
           (fun i nd ->
             ( nd,
               List.filter_map
                 (fun k ->
                   if k mod replicas = i then Some (key k, seed_data.(k))
                   else None)
                 (List.init w.keys Fun.id) ))
           c.nodes);
      Array.iteri (fun k v -> Hashtbl.replace c.model (key k) [ v ]) seed_data;
      let seeded = now () -. t0 in
      (* the content checks between rounds are not part of setup *)
      let t, ok = converge setup c in
      if not (ok && settle c.nodes ~tx0:0 ~rx0:0) then
        failwith "setup: the seeded cluster did not converge";
      (c, seeded +. t)

(* --- episodes --- *)

let replay_bytes c =
  Option.fold ~none:0 ~some:(fun r -> r.Replay.bytes) c.replay

let tracing c on = Option.iter (fun r -> r.Replay.tr.Tracer.on <- on) c.replay

(* Converge after an episode's writes (or join) and book the episode. *)
let run_episode a c ~delivered =
  let tx0 = total c.nodes "net_tx_bytes_total"
  and rx0 = total c.nodes "net_rx_bytes_total"
  and shipped0 = total c.nodes "net_sync_shipped_bytes_total"
  and minimal0 = total c.nodes "net_sync_minimal_bytes_total"
  and bytes0 = replay_bytes c
  and sessions0 = a.sessions in
  let t, ok = converge a c in
  a.delivered <- a.delivered + delivered ();
  let settled = settle c.nodes ~tx0 ~rx0 in
  tracing c false;
  let tx = total c.nodes "net_tx_bytes_total" - tx0 in
  a.episodes <- a.episodes + 1;
  a.converge <- (t *. 1e3) :: a.converge;
  a.converge_s <- a.converge_s +. t;
  a.tx <- a.tx + tx;
  a.shipped <-
    a.shipped + total c.nodes "net_sync_shipped_bytes_total" - shipped0;
  a.minimal <-
    a.minimal + total c.nodes "net_sync_minimal_bytes_total" - minimal0;
  if not (ok && settled) then a.divergent <- a.divergent + 1;
  if not (faithful c ~bytes:(replay_bytes c - bytes0) ~tx) then
    a.unfaithful <- a.unfaithful + 1;
  if c.replay <> None then
    (* A node refreshes its store gauges once on each side of a
       session; [Node.digest] runs the same content walk. *)
    let refresh =
      List.fold_left
        (fun acc nd ->
          let t0 = now () in
          ignore (List.length (N.keys nd.n) + N.digest nd.n);
          acc +. (now () -. t0))
        0. c.nodes
      /. float_of_int (List.length c.nodes)
    in
    a.gauge_s <-
      a.gauge_s +. (2. *. refresh *. float_of_int (a.sessions - sessions0))

let mesh_episode w pattern a c rng ~perm ~e =
  let nodes = Array.of_list c.nodes in
  let step = if w.cycle = 0 then e else (e - 1) mod w.cycle in
  let writes =
    Array.mapi
      (fun i _ ->
        let ks =
          match pattern with
          | Uniform n -> distinct rng ~n:w.keys n
          | Window (width, stride) ->
              List.init width (fun j ->
                  perm.((((i + step) * stride) + j) mod w.keys))
        in
        List.map
          (fun k ->
            let tag = Printf.sprintf "e%d.n%d.k%d:" e i k in
            (key k, value rng ~tag w.value_bytes))
          ks)
      nodes
    |> Array.to_list
  in
  tracing c true;
  put_all a c (List.combine c.nodes writes);
  (* concurrent writes to one key all survive as candidates *)
  let written =
    List.sort_uniq compare (List.concat_map (List.map fst) writes)
  in
  List.iter
    (fun k ->
      Hashtbl.replace c.model k
        (List.sort compare
           (List.concat_map
              (List.filter_map (fun (k', v) ->
                   if k = k' then Some v else None))
              writes)))
    written;
  let before = Array.map (fun nd -> List.map (N.get nd.n) written) nodes in
  run_episode a c ~delivered:(fun () ->
      let fresh = ref 0 in
      Array.iteri
        (fun i nd ->
          List.iter2
            (fun k old ->
              List.iter
                (fun v ->
                  if not (List.mem v old) then
                    fresh := !fresh + String.length v)
                (N.get nd.n k))
            written before.(i))
        nodes;
      !fresh)

let catch_up_episode a c ~e =
  let seed = List.hd c.nodes in
  let j = start ~name:(Printf.sprintf "j%d" e) ~peers:[ seed ] in
  c.nodes <- [ seed; j ];
  Option.iter (fun r -> Replay.add r j.nname) c.replay;
  tracing c true;
  Fun.protect
    ~finally:(fun () ->
      a.proto_errors <- a.proto_errors + counter j "net_protocol_errors_total";
      N.stop j.n;
      c.nodes <- [ seed ];
      Option.iter (fun r -> Replay.drop r j.nname) c.replay)
    (fun () ->
      run_episode a c ~delivered:(fun () ->
          List.fold_left
            (fun acc (_, vs) ->
              List.fold_left (fun acc v -> acc + String.length v) acc vs)
            0 (content j)))

(* --- the run --- *)

let retire a c =
  a.proto_errors <- a.proto_errors + total c.nodes "net_protocol_errors_total";
  stop c

let run w ~seed ~seconds ~trace tr =
  let rng = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let seed_data =
    Array.init w.keys (fun k ->
        value rng ~tag:(Printf.sprintf "s.k%d:" k) w.value_bytes)
  in
  let perm = Array.init w.keys Fun.id in
  for i = w.keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let a = acc () in
  (* a fixed schedule, so that byte counts repeat exactly per seed; a
     cycling workload runs whole cycles *)
  let episodes =
    let n =
      Float.to_int (Float.ceil (float_of_int seconds *. w.episodes_per_s))
    in
    if w.cycle > 0 then (n + w.cycle - 1) / w.cycle * w.cycle else n
  in
  let current = ref None in
  let fresh () =
    Option.iter (retire a) !current;
    current := None;
    let c, dt = build w a ~trace ~tr seed_data in
    current := Some c;
    a.setup <- dt :: a.setup;
    c
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (retire a) !current)
    (fun () ->
      for _ = 1 to (if trace then 1 else w.setup_reps) do
        ignore (fresh ())
      done;
      for e = 1 to episodes do
        let c =
          match !current with
          | Some c when w.cycle = 0 || (e - 1) mod w.cycle <> 0 || e = 1 -> c
          | _ -> fresh ()
        in
        match w.kind with
        | Mesh { writes; _ } -> mesh_episode w writes a c rng ~perm ~e
        | Catch_up -> catch_up_episode a c ~e
      done);
  a

let word_bytes = float_of_int (Sys.word_size / 8)

let end_to_end a =
  let per_episode x = x /. float_of_int a.episodes in
  let converge_tail, pct = Stats.tail a.converge in
  Printf.eprintf
    "replbench: %d episodes; converge_ms.tail is p%.1f (%d samples beyond)\n"
    a.episodes pct Stats.beyond;
  [
    ("setup_s", Stats.median a.setup, "s");
    ("converge_ms.p50", Stats.median a.converge, "ms");
    ("converge_ms.tail", converge_tail, "ms");
    ( "goodput_mb_per_s",
      float_of_int a.delivered /. 1e6 /. a.converge_s,
      "MB/s" );
    ("wire_bytes_per_episode", per_episode (float_of_int a.tx), "B");
    ("cpu_ms_per_episode", per_episode (a.cpu_s *. 1e3), "ms");
    ("put_us.p50", Stats.median a.puts, "us");
    ("put_us.tail", Stats.percentile pct a.puts, "us");
    ( "peak_heap_mb",
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1e6,
      "MB" );
  ]

let legs = [ "kv.offer"; "kv.wants"; "kv.fulfil"; "kv.reconcile"; "kv.apply" ]

(* Layer calls inside a session that do not nest in one another: their
   summed self time is what the trace covers of the session. *)
let session_layers =
  legs
  @ [
      "wire.encode"; "wire.decode"; "proto.encode"; "proto.decode";
      "frame.encode"; "frame.decode";
    ]

let per_layer a tr =
  let per_episode x = x /. float_of_int a.episodes in
  let ms name = per_episode (Tracer.seconds tr name *. 1e3) in
  let count name = per_episode (Tracer.get tr name) in
  let ratio x y = if y = 0. then 0. else x /. y in
  let share num den = ratio (Tracer.get tr num) (Tracer.get tr den) in
  let self_s =
    List.fold_left (fun acc l -> acc +. Tracer.seconds tr l) 0. session_layers
  in
  let traced_s = Tracer.seconds tr "session"
  and untraced_s = Tracer.get tr "untraced_s" in
  List.map (fun l -> (l ^ "_ms", ms l, "ms")) legs
  @ [
      ("kv.keys_offered", count "kv.keys_offered", "count");
      ("kv.keys_wanted", count "kv.keys_wanted", "count");
      ("kv.want_ratio", share "kv.keys_wanted" "kv.keys_offered", "ratio");
      ( "kv.put_us",
        ratio (Tracer.seconds tr "kv.put" *. 1e6) (Tracer.get tr "kv.puts"),
        "us" );
      ("wire.encode_ms", ms "wire.encode", "ms");
      ("wire.decode_ms", ms "wire.decode", "ms");
      ("wire.stamps", count "wire.stamps", "count");
      ("wire.stamp_bytes_mean", share "wire.stamp_bytes" "wire.stamps", "B");
      ("wire.stamp_bytes_max", Tracer.get tr "wire.stamp_bytes_max", "B");
      ("stamp.relation_ms", ms "stamp.relation", "ms");
      ("stamp.sync_ms", ms "stamp.sync", "ms");
      ("stamp.relations", count "stamp.relations", "count");
      ( "stamp.concurrent_share",
        share "stamp.concurrent" "stamp.relations",
        "ratio" );
      ("proto.encode_ms", ms "proto.encode", "ms");
      ("proto.decode_ms", ms "proto.decode", "ms");
    ]
  @ List.map
      (fun k -> ("proto.bytes." ^ k, count ("proto.bytes." ^ k), "B"))
      [ "offer"; "want"; "items"; "result" ]
  @ [
      ("frame.encode_ms", ms "frame.encode", "ms");
      ("frame.decode_ms", ms "frame.decode", "ms");
      ("frame.count", count "frame.count", "count");
      ("frame.bytes", count "frame.bytes", "B");
      ("node.sync_now_ms", per_episode (a.sync_now_s *. 1e3), "ms");
      ("node.sessions", per_episode (float_of_int a.sessions), "count");
      ("node.residual_ms", per_episode ((a.sync_now_s -. self_s) *. 1e3), "ms");
      ("node.gauge_ms", per_episode (a.gauge_s *. 1e3), "ms");
      ("ledger.shipped_bytes", per_episode (float_of_int a.shipped), "B");
      ("ledger.minimal_bytes", per_episode (float_of_int a.minimal), "B");
      ( "ledger.delta_efficiency",
        ratio (float_of_int a.minimal) (float_of_int a.shipped),
        "ratio" );
      ( "gc.minor_mwords_per_episode",
        per_episode (a.minor_words /. 1e6),
        "Mwords" );
      ("gc.major_collections", float_of_int a.major, "count");
      ("trace.coverage", ratio self_s a.sync_now_s, "ratio");
      ("trace.overhead", ratio (traced_s -. untraced_s) untraced_s, "ratio");
    ]

(* --- output --- *)

(* The result line: every metric as measured, all digits kept. *)
let emit ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let num v =
    if not (Float.is_finite v) then "0"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite) attempted failed (String.concat ", " metrics)

let main workload seed seconds trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
        failwith
          (Printf.sprintf "unknown workload %S (known: %s)" workload
             (String.concat ", " (List.map (fun w -> w.name) workloads)))
  in
  let tr = Tracer.create () in
  let a = run w ~seed ~seconds ~trace tr in
  let failed = a.failed_sessions + a.proto_errors + a.divergent in
  Printf.eprintf
    "replbench: %s seed %d: %d sessions, %d failed, %d protocol errors, %d \
     divergent episodes, %d unfaithful replays\n"
    w.name seed a.attempted a.failed_sessions a.proto_errors a.divergent
    a.unfaithful;
  let metrics =
    if trace then begin
      let dir = ".replbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Tracer.write tr (Printf.sprintf "%s/spans-%s-%d.jsonl" dir w.name seed);
      per_layer a tr
    end
    else end_to_end a
  in
  emit
    ~correct:(a.divergent = 0 && a.unfaithful = 0)
    ~attempted:a.attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME sparse-dirty, hot-conflict or catch-up" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S schedule length, in seconds");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics, or the layer-traced replay" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "replbench --workload NAME --seed N --seconds S --trace 0|1";
  match main !workload !seed !seconds (!trace = 1) with
  | () -> exit 0
  | exception e ->
      Printf.eprintf "replbench: %s\n" (Printexc.to_string e);
      exit 1
