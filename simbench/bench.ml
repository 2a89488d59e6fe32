(* What a benchmark workload supplies to the harness. *)

type outcome = {
  ops : int;  (** simulated work done: requests, accesses or kilocycles *)
  digest : string;  (** hex digest of every simulated result *)
  problems : string list;  (** output checks that failed; [] = correct *)
  counts : (string * float) list;
      (** per-layer counts, named after {!Metric.per_layer} or the raw
          quantities ("coherence.accesses") the harness derives from *)
}

type t = {
  name : string;
  op : string;  (** what one op is, for the printed report *)
  rate_alias : string * float;
      (** the workload-specific name of [sim_ops_per_s] and its scale *)
  generate : seed:int -> int -> Span.t -> unit -> outcome;
      (** [generate ~seed] makes every input variant.  Applying the
          result to a variant and a span recorder runs that variant's
          timed call sequence; the returned thunk checks its outputs
          (untimed). *)
}

(* Iteration i replays input variant [i mod variants]; each variant
   has its own seed offset. *)
let variants = 4

let variant_seed ~seed v = (seed * 64) + v

let digest_of fields = Digest.to_hex (Digest.string (String.concat "," fields))

(* Floats go into digests in hex so a one-ulp change shows. *)
let hexf = Printf.sprintf "%h"

let check cond msg problems = if cond then problems else msg :: problems
