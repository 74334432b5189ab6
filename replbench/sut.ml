(* The system under test, instantiated once: the default stamp backend,
   exactly as [vstamp serve] instantiates it, with the node, its store
   and its stamp codec over that backend. *)

module B = (val Vstamp_core.Backend.default : Vstamp_core.Backend.S)
module N = Vstamp_net.Node.Make (B)
module KV = N.KV
module C = Vstamp_codec.Wire.Make (B)

let backend_key = Vstamp_core.Backend.default_key

(* Seconds on the monotonic clock, to the nanosecond: single puts on a
   small store take a few microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* User+system CPU of the whole process (benchmark and node threads). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
