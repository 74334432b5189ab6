(** A peer-to-peer key-value replica tracked by version stamps.

    The stamp-based counterpart of {!Kv_node}: where [Kv_node] models
    the data-center architecture (fixed server ids, dotted version
    vectors, tombstoned deletes), this store models the {e ad-hoc} side
    of the identity question — any replica can be copied anywhere, with
    no id service, because every key is a stamped multi-value register
    ({!Vstamp_crdt.Mv_register}) whose identity forks locally.

    Caveats that follow from the model: keys created independently on
    two replicas share no causal context, so their first sync reports a
    conflict even for equal values; and {!remove} is a local forget with
    no tombstone — a peer that still holds the key re-introduces it on
    the next sync. *)

type t
(** One replica of the store.  Immutable. *)

val empty : t

val keys : t -> string list
(** Sorted. *)

val mem : t -> string -> bool

val get : t -> string -> string list
(** Current candidate values: [[]] for unknown keys, a singleton when
    there is no unresolved conflict. *)

val stamp : t -> string -> Vstamp_core.Stamp.t option
(** The version stamp tracking one key, if present. *)

val put : t -> key:string -> string -> t
(** Local write; first write of a key seeds a fresh register. *)

val remove : t -> string -> t
(** Local forget (no tombstone; see the module preamble). *)

val resolve : t -> key:string -> value:string -> t
(** Settle a conflict: the chosen value becomes a new write. *)

val conflict : t -> string -> bool
(** Multiple concurrent candidates currently stored for the key. *)

val sync : t -> t -> t * t
(** Pairwise anti-entropy over the union of the two replicas' keys;
  keys held by one side only are replicated to the other (both
  continuing the same forked lineage).  Runs on the shared
  {!Vstamp_sync.Engine} session (frontier offer → delta request →
  reconcile), composed in-process. *)

(** {2 Wire-level session legs}

    The same session split for a transport: each leg exchanges plain
    serializable data, so a framed protocol ({!Vstamp_net}) can ship
    the legs between processes and still produce stores
    byte-identical to an in-process {!sync}.  The legs do {e not}
    charge the attached [kvs_sync_*] ledger — a networked round
    accounts to the [tally] it passes to {!reconcile}. *)

type frontier = (string * Vstamp_core.Stamp.t * string) list
(** One entry per key: its stamp and a digest fingerprinting the
    candidate value set. *)

type delta = (string * Vstamp_core.Stamp.t * string list) list
(** Full entries on the move: key, stamp, candidate values. *)

val offer : t -> frontier
(** Leg 1 (initiator): the replica's full frontier, sorted by key. *)

val wants : t -> frontier -> string list
(** Leg 2 (responder): the keys whose full entries are needed — ones
    this replica lacks, is dominated on, or holds concurrent/equal
    with a different candidate set. *)

val fulfil : t -> string list -> delta
(** Leg 3 (initiator): the requested entries. *)

val reconcile :
  ?tally:Vstamp_sync.Ledger.t -> t -> frontier -> delta -> t * delta
(** Leg 4 (responder): reconcile the received entries against the
    offered frontier; returns the updated replica and the
    initiator's halves to ship back. *)

val apply : t -> delta -> t
(** Final leg (initiator): adopt the responder's results. *)

val converged : t -> t -> bool
(** Same keys, same candidate value sets. *)

val size_bits : t -> int
(** Total causality metadata across all keys. *)

val pp : Format.formatter -> t -> unit

(** {1 Live instrumentation}

    Off by default.  When attached, every {!sync} bumps
    [kvs_sync_rounds_total] and charges the anti-entropy walk to the
    delta ledger: [kvs_sync_shipped_bytes_total] (both replicas' stamp
    metadata per shared key plus the candidate values that change
    hands), [kvs_sync_minimal_bytes_total] (the frontier-exchange
    minimum: nothing for equivalent keys, the dominant side only for
    ordered ones), [kvs_sync_redundant_bytes_total] (their difference)
    and the [kvs_sync_delta_efficiency] gauge (running
    [minimal / shipped]). *)
module Obs : sig
  val attach : ?registry:Vstamp_obs.Registry.t -> unit -> unit
  (** Start counting into [registry] (default
      {!Vstamp_obs.Registry.default}).  Re-attaching rebinds to the
      registry given last. *)

  val detach : unit -> unit

  val attached : unit -> bool
end
