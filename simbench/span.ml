(* Host-time spans recorded by the benchmark around its calls into
   the simulator's layers.  Spans are kept in memory and written out
   once, when the run ends.  The disabled recorder just calls through,
   so untraced iterations run the same code path without the clock
   reads. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the top *)
  start : float;
  mutable stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable open_ : int;
}

let create () = { enabled = true; spans = []; next = 0; open_ = -1 }
let null = { enabled = false; spans = []; next = 0; open_ = -1 }
let enabled t = t.enabled
let now = Unix.gettimeofday

let with_ t name f =
  if not t.enabled then f ()
  else begin
    let s = { id = t.next; name; parent = t.open_; start = now (); stop = 0.0 } in
    t.next <- t.next + 1;
    t.spans <- s :: t.spans;
    t.open_ <- s.id;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        t.open_ <- s.parent)
      f
  end

let spans t = List.rev t.spans

(* The layer a span belongs to is its name up to the first dot:
   "coherence.replay" is coherence time. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time: duration less the time its children cover.  Children
   never overlap: every span is opened and closed on the main domain,
   strictly nested. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = s.stop -. s.start in
        Hashtbl.replace child s.parent
          (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.stop -. s.start -. covered))
    (spans t)

(* Chrome trace-event JSON, loadable in Perfetto or chrome://tracing. *)
let write_chrome t path =
  let oc = open_out path in
  let t0 = match spans t with [] -> 0.0 | s :: _ -> s.start in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}"
        (if i = 0 then "" else ",\n")
        s.name (layer s.name)
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent)
    (spans t);
  output_string oc "\n]}\n";
  close_out oc
