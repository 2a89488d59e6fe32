(* GC pause time, read in-process from OCaml's runtime_events ring.

   Every domain writes its own ring; a pause on a ring is the time it
   spends inside any runtime phase other than a condition wait (a
   domain blocked in [Domain.join] or on a mutex is idle, not
   collecting).  Nested phases count once.  The benchmark resumes
   collection only around traced iterations, so the total is their GC
   time, summed over domains. *)

let max_rings = 128

type state = {
  depth : int array;  (** open phases, per ring *)
  since : int array;  (** ns timestamp the outermost open phase began *)
  mutable pause_ns : int;
  mutable lost : int;
}

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  st : state;
}

let counted = function Runtime_events.EV_DOMAIN_CONDITION_WAIT -> false | _ -> true
let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

let start () =
  Runtime_events.start ();
  Runtime_events.pause ();
  let st =
    { depth = Array.make max_rings 0; since = Array.make max_rings 0; pause_ns = 0; lost = 0 }
  in
  let runtime_begin ring ts phase =
    if ring < max_rings && counted phase then begin
      if st.depth.(ring) = 0 then st.since.(ring) <- ns ts;
      st.depth.(ring) <- st.depth.(ring) + 1
    end
  in
  let runtime_end ring ts phase =
    if ring < max_rings && counted phase && st.depth.(ring) > 0 then begin
      st.depth.(ring) <- st.depth.(ring) - 1;
      if st.depth.(ring) = 0 then st.pause_ns <- st.pause_ns + ns ts - st.since.(ring)
    end
  in
  let lost_events _ring n = st.lost <- st.lost + n in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    st;
  }

(* Collect the GC events [f] causes.  A phase cut in half by the
   pause has no end event; forgetting open phases keeps it from
   stretching into the next window. *)
let around t f =
  Runtime_events.resume ();
  Fun.protect f ~finally:(fun () ->
      Runtime_events.pause ();
      ignore (Runtime_events.read_poll t.cursor t.callbacks None);
      Array.fill t.st.depth 0 max_rings 0)

let pause_ms t = float_of_int t.st.pause_ns /. 1e6
let lost_events t = t.st.lost
