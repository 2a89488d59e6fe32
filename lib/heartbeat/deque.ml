(* A growable circular buffer.  [top] and [bot] count pushes and
   steals since creation; slot [i] lives at [i land (capacity - 1)],
   the capacity staying a power of two. *)
type 'a t = {
  mutable slots : 'a option array;
  mutable top : int;  (* oldest element *)
  mutable bot : int;  (* one past the newest *)
}

let create () = { slots = Array.make 8 None; top = 0; bot = 0 }
let length t = t.bot - t.top
let is_empty t = t.bot = t.top

let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (2 * cap) None in
  for i = t.top to t.bot - 1 do
    slots.(i land ((2 * cap) - 1)) <- t.slots.(i land (cap - 1))
  done;
  t.slots <- slots

let push_bottom t x =
  if length t = Array.length t.slots then grow t;
  t.slots.(t.bot land (Array.length t.slots - 1)) <- Some x;
  t.bot <- t.bot + 1

(* Empty the slot on the way out, so the buffer holds no stale
   reference, and hand back the option it held. *)
let take t i =
  let j = i land (Array.length t.slots - 1) in
  let x = t.slots.(j) in
  t.slots.(j) <- None;
  x

let pop_bottom t =
  if is_empty t then None
  else begin
    t.bot <- t.bot - 1;
    take t t.bot
  end

let steal_top t =
  if is_empty t then None
  else begin
    let x = take t t.top in
    t.top <- t.top + 1;
    x
  end
