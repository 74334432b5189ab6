(** The [vstamp-sync/1] message layer (one message per frame).

    A tag byte, then varint-length-prefixed fields.  Stamps travel as
    opaque strings (the canonical {!Vstamp_codec.Wire} encoding), so the
    layer never looks inside them.
    {!decode} is total: truncated fields, absurd counts or bit-flipped
    tags return [Error], never raise.  See [doc/protocol.md] for the
    frame grammar and session state machine. *)

val version : int
(** The protocol version this build speaks: [1]. *)

val magic : string
(** ["vstamp-sync/1"], carried in every handshake frame. *)

type hello = { node_id : string; backend : string; proto : int }
(** [backend] names the peer's name representation.  Nodes always send
    ["tree"] ({!Vstamp_core.Backend.default_key}) and never check it;
    the field stays for wire compatibility. *)

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

val encode : msg -> string

val decode : string -> (msg, string) result
(** Total: any byte string decodes to a message or an [Error] naming
    the defect.  Trailing garbage after a well-formed message is an
    error too (one frame carries exactly one message). *)
