(** A private per-core cache: set-associative, LRU, with MESI line
    states.  One level stands in for the L1/L2 hierarchy of the §V-B
    evaluation machine; capacity is configurable per platform. *)

type state = Modified | Exclusive | Shared_state | Invalid

type t

val create : size_kb:int -> ways:int -> line_bytes:int -> t

val line_of_addr : t -> int -> int
(** Line (block) number containing a byte address. *)

val lookup : t -> int -> state
(** State of the line containing this address ([Invalid] if absent). *)

val install : t -> int -> state -> int
(** Install the line containing [addr] with the given state; LRU
    within the set.  Returns the displaced valid entry, packed so the
    call allocates nothing (read it with {!evicted_line} and
    {!evicted_state}), or [-1] if none was displaced. *)

val evicted_line : int -> int
val evicted_state : int -> state

val set_state : t -> int -> state -> unit
(** Change the state of a resident line (no-op if absent). *)

val invalidate : t -> int -> unit
(** Drop the line containing [addr]. *)

val resident : t -> int -> bool

val lines : t -> int
(** Total capacity in lines. *)

val fold : t -> init:'a -> f:('a -> int -> state -> 'a) -> 'a
(** Fold over resident (non-invalid) lines as (line, state). *)
