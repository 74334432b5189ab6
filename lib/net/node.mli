(** A networked [vstamp] node: a {!Vstamp_kvs.Stamped_kv} replica served
    over the [vstamp-sync/1] framed protocol on loopback/LAN TCP.

    One node owns one store, one listening socket with a responder
    thread per accepted connection, and (optionally) one dial thread
    per configured peer running periodic anti-entropy rounds with
    exponential reconnect backoff.  A round is the engine session split
    across the wire — Offer (frontier) → Want → Items → Result — so a
    pair of nodes converges to stores byte-identical to an in-process
    [Stamped_kv.sync].

    Metric families bound into the node's registry: [net_rounds_total],
    [net_tx_bytes_total], [net_rx_bytes_total],
    [net_protocol_errors_total], [net_reconnects_total],
    [net_peers_connected], [net_store_keys], [net_store_digest], plus
    the [net_sync_*] delta-ledger family ({!Vstamp_sync.Ledger}). *)

val initial_backoff_s : float
(** First reconnect delay: [0.2]s, doubling per failure. *)

val max_backoff_s : float
(** Reconnect delay cap: [5.0]s. *)

type t

val create :
  ?registry:Vstamp_obs.Registry.t ->
  ?interval_s:float ->
  ?idle_timeout_s:float ->
  ?addr:string ->
  ?backend:string ->
  node_id:string ->
  port:int ->
  peers:(string * int) list ->
  unit ->
  t
(** Bind and listen on [addr:port] ([port = 0] picks an ephemeral
    port — see {!port}) and start the accept thread.  [interval_s]
    (default 1s) spaces the periodic rounds of {!start_dialers};
    [idle_timeout_s] (default 60s) bounds how long a blocked read may
    pin a connection thread.  [backend] is accepted for the
    replication benchmark's call and ignored: the handshake always
    advertises {!Vstamp_core.Backend.default_key} (["tree"]).
    @raise Unix.Unix_error when the bind fails. *)

val start_dialers : t -> unit
(** Launch one periodic anti-entropy thread per configured peer
    (connect → handshake → a round every [interval_s]; on failure,
    reconnect with exponential backoff).  Separate from {!create} so
    a node can instead be driven deterministically by {!sync_now}. *)

val sync_now : t -> int
(** One synchronous anti-entropy round against every configured peer
    over a dedicated connection; returns how many peers completed the
    round.  Usable with or without {!start_dialers}. *)

val port : t -> int
(** The port actually bound (resolves [port = 0]). *)

val put : t -> key:string -> string -> unit
(** Local write into the node's store (thread-safe). *)

val get : t -> string -> string list

val keys : t -> string list

val digest : t -> int
(** Fingerprint of the observable store content (keys and sorted
    candidate sets, stamps excluded): replicas that have converged
    report equal digests.  Exported as the [net_store_digest] gauge. *)

val peers_json : t -> Vstamp_obs.Jsonx.t
(** The [/peers.json] snapshot: node identity, bound port, store
    summary, and per-peer [state]/[attempts]/[rounds]/[backoff_s]/
    [last_error]. *)

val stop : t -> unit
(** Stop accepting, join the accept/dial/connection threads, close
    the listening socket.  Idempotent. *)

(** The node under the functor name the replication benchmark
    ([replbench]) applies; kept for it. *)
module Make (_ : Vstamp_core.Backend.S) : sig
  module KV = Vstamp_kvs.Stamped_kv

  type nonrec t = t

  val create :
    ?registry:Vstamp_obs.Registry.t ->
    ?interval_s:float ->
    ?idle_timeout_s:float ->
    ?addr:string ->
    ?backend:string ->
    node_id:string ->
    port:int ->
    peers:(string * int) list ->
    unit ->
    t

  val sync_now : t -> int

  val port : t -> int

  val put : t -> key:string -> string -> unit

  val get : t -> string -> string list

  val keys : t -> string list

  val digest : t -> int

  val stop : t -> unit
end
