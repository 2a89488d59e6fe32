open Iw_engine
open Iw_kernel

(* The tick and the interrupt's handler/after are built once in
   [create]; each expiry re-arms the same tick, so a running timer
   allocates nothing beyond the growth of [times]. *)
type t = {
  k : Sched.t;
  cpu : int;
  period : int;
  handler_cost : int;
  handler : preempted:int -> unit;
  mutable running : bool;
  mutable pending : bool;  (* delivery in flight *)
  mutable deadline : int;  (* grid point of the next expiry *)
  mutable delivered : int;
  mutable overruns : int;
  mutable times : int array;  (* the first [delivered] slots are used *)
  rng : Rng.t;
  tick : unit -> unit;
  on_irq : preempted:int -> int;
  on_return : unit -> unit;
}

(* Jitter is drawn per expiry; an expiry late past [now] fires now. *)
let arm t =
  if t.running then begin
    let s = Sched.sim t.k in
    let jitter = max 0 ((Sched.personality t.k).Os.timer_jitter t.rng) in
    Sim.schedule_unit s ~at:(max (Sim.now s) (t.deadline + jitter)) t.tick
  end

let deliver t =
  let costs = (Sched.platform t.k).Iw_hw.Platform.costs in
  t.pending <- true;
  Iw_hw.Cpu.interrupt (Sched.cpu t.k t.cpu) ~dispatch:costs.interrupt_dispatch
    ~return_cost:costs.interrupt_return ~handler:t.on_irq ~after:t.on_return

let record_delivery t =
  if t.delivered = Array.length t.times then begin
    let times = Array.make (max 16 (2 * t.delivered)) 0 in
    Array.blit t.times 0 times 0 t.delivered;
    t.times <- times
  end;
  t.times.(t.delivered) <- Sim.now (Sched.sim t.k);
  t.delivered <- t.delivered + 1

let create k ~cpu ~period ?(handler_cost = 50) ~handler () =
  if period <= 0 then invalid_arg "Itimer.create: period <= 0";
  let rng = Rng.split (Sim.rng (Sched.sim k)) in
  let rec t =
    {
      k;
      cpu;
      period;
      handler_cost;
      handler;
      running = false;
      pending = false;
      deadline = 0;
      delivered = 0;
      overruns = 0;
      times = [||];
      rng;
      tick =
        (fun () ->
          if t.running then begin
            if t.pending then t.overruns <- t.overruns + 1 else deliver t;
            t.deadline <- t.deadline + t.period;
            arm t
          end);
      on_irq =
        (fun ~preempted ->
          record_delivery t;
          t.handler ~preempted;
          (* hrtimer/softirq + signal frame + sigreturn + the user code. *)
          (Sched.personality t.k).Os.timer_extra + t.handler_cost);
      on_return =
        (fun () ->
          t.pending <- false;
          Sched.resched_or_resume t.k t.cpu);
    }
  in
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.deadline <- Sim.now (Sched.sim t.k) + t.period;
    arm t
  end

let stop t = t.running <- false
let delivered t = t.delivered
let overruns t = t.overruns
let delivery_times t = List.init t.delivered (Array.get t.times)
