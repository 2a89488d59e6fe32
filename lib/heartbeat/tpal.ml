open Iw_engine
open Iw_hw
open Iw_kernel

type range = { items : int; grain : int }
type bench = { bench_name : string; ranges : range list }

(* Shapes after the TPAL paper's suite: equal total work (~8M cycles
   serial), very different grain structure. *)
let plus_reduce =
  { bench_name = "plus-reduce"; ranges = [ { items = 160_000_000; grain = 4 } ] }

let spmv =
  {
    bench_name = "spmv";
    ranges =
      [
        { items = 8_000_000; grain = 10 };
        { items = 4_000_000; grain = 30 };
        { items = 4_800_000; grain = 60 };
        { items = 3_600_000; grain = 45 };
      ];
  }

let mandelbrot =
  { bench_name = "mandelbrot"; ranges = [ { items = 3_200_000; grain = 200 } ] }

let srad =
  {
    bench_name = "srad";
    ranges =
      [ { items = 8_000_000; grain = 50 }; { items = 4_800_000; grain = 50 } ];
  }

let floyd_warshall =
  {
    bench_name = "floyd-warshall";
    ranges = [ { items = 6_400_000; grain = 100 } ];
  }

let kmeans =
  {
    bench_name = "kmeans";
    ranges =
      [ { items = 25_600_000; grain = 20 }; { items = 6_400_000; grain = 20 } ];
  }

let suite = [ plus_reduce; spmv; mandelbrot; srad; floyd_warshall; kmeans ]

let total_items b = List.fold_left (fun acc r -> acc + r.items) 0 b.ranges

let total_work b =
  List.fold_left (fun acc r -> acc + (r.items * r.grain)) 0 b.ranges

let serial_cycles = total_work

type driver = Nk_ipi | Linux_signal

type config = { workers : int; heartbeat_us : float; driver : driver; seed : int }

type report = {
  bench : string;
  os : string;
  workers : int;
  heartbeat_us : float;
  elapsed_cycles : int;
  work_cycles : int;
  overhead_cycles : int;
  overhead_pct : float;
  promotions : int;
  steals : int;
  deliveries : int;
  target_rate_hz : float;
  achieved_rate_hz : float;
  rate_cv : float;
  speedup_vs_serial : float;
}

(* ------------------------------------------------------------------ *)

(* A worker's stealable tasks as a growable circular pair of int
   arrays: a promotion pushes no record and no cons cell.  [top] and
   [bot] count steals and pushes; slot [i] lives at
   [i land (capacity - 1)], the capacity staying a power of two. *)
module Taskq = struct
  type t = {
    mutable items : int array;
    mutable grains : int array;
    mutable top : int;  (* oldest task; thieves take from here *)
    mutable bot : int;  (* one past the newest; the owner's end *)
  }

  let create () =
    { items = Array.make 8 0; grains = Array.make 8 0; top = 0; bot = 0 }

  let is_empty q = q.bot = q.top

  let push q ~items ~grain =
    let cap = Array.length q.items in
    if q.bot - q.top = cap then begin
      let grow a =
        let b = Array.make (2 * cap) 0 in
        for i = q.top to q.bot - 1 do
          b.(i land ((2 * cap) - 1)) <- a.(i land (cap - 1))
        done;
        b
      in
      q.items <- grow q.items;
      q.grains <- grow q.grains
    end;
    let j = q.bot land (Array.length q.items - 1) in
    q.items.(j) <- items;
    q.grains.(j) <- grain;
    q.bot <- q.bot + 1

  (* [pop] (the newest task) and [steal] (the oldest) remove a task and
     return its slot, valid until the next [push]; -1 when empty. *)
  let pop q =
    if is_empty q then -1
    else begin
      q.bot <- q.bot - 1;
      q.bot land (Array.length q.items - 1)
    end

  let steal q =
    if is_empty q then -1
    else begin
      q.top <- q.top + 1;
      (q.top - 1) land (Array.length q.items - 1)
    end
end

(* What a worker does when its step function next runs. *)
type phase =
  | Idle  (* top of the loop: take a task, or pick a victim *)
  | Popped  (* paid the pop; run the task *)
  | Stealing  (* paid the steal attempt; look at the victim *)
  | Running  (* the task's work was granted; it is done *)

type wstate = {
  wid : int;
  dq : Taskq.t;
  flat : Sched.flat;
  mutable phase : phase;
  (* The task in hand, taken by a pop or a steal and executing while
     [phase = Running]; a promotion shrinks [cur_items]. *)
  mutable cur_items : int;
  mutable cur_grain : int;
  mutable backoff : int;
  mutable victim : int;
}

type shared = {
  k : Sched.t;
  ws : wstate array;
  promote_div : int;
  mutable remaining : int;
  mutable promotions : int;
  mutable steals : int;
  mutable deliveries : int;
  gaps : Stats.t;
  last_beat : int array;
  srng : Rng.t;
  mutable finish : int;  (* sim time when the workload completed *)
}

let promotion_check_cost = 60
let promotion_cost = 120

(* Heartbeat arrival on [cpu], in interrupt context.  If the worker is
   mid-range with at least two items left, split off the upper half as
   a stealable task and shrink both the running task and the cycles
   the scheduler still owes the thread. *)
let on_heartbeat sh cpu ~preempted =
  sh.deliveries <- sh.deliveries + 1;
  let obs = Sched.obs sh.k in
  Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Heartbeats;
  let now = Sched.now sh.k in
  if sh.last_beat.(cpu) >= 0 then
    Stats.add_int sh.gaps (now - sh.last_beat.(cpu));
  sh.last_beat.(cpu) <- now;
  if preempted < 0 then promotion_check_cost
  else begin
    let w = sh.ws.(cpu) in
    let rem =
      if w.phase = Running && Sched.current_is sh.k cpu (Sched.flat_thread w.flat)
      then preempted / w.cur_grain
      else 0
    in
    if rem >= sh.promote_div then begin
      let promote = rem / sh.promote_div in
      Taskq.push w.dq ~items:promote ~grain:w.cur_grain;
      w.cur_items <- w.cur_items - promote;
      sh.promotions <- sh.promotions + 1;
      Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Promotions;
      if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
        Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"promote"
          ~cat:"heartbeat" ~cpu ~ts:now ();
      Sched.stash_preempted sh.k cpu (preempted - (promote * w.cur_grain));
      promotion_check_cost + promotion_cost
    end
    else begin
      Sched.stash_preempted sh.k cpu preempted;
      promotion_check_cost
    end
  end

let take w q j =
  w.cur_items <- q.Taskq.items.(j);
  w.cur_grain <- q.Taskq.grains.(j)

let run_task sh w =
  w.phase <- Running;
  Sched.flat_work sh.k w.flat (w.cur_items * w.cur_grain)

(* The worker loop as a flat thread: pop a task from the own deque's
   bottom (paying 20 cycles), else pay a steal attempt on a random
   victim's top, else back off exponentially; a task runs as one work
   grant followed by an atomic update of [remaining]. *)
let rec worker_step sh w () =
  let k = sh.k and f = w.flat in
  let costs = (Sched.platform k).Platform.costs in
  match w.phase with
  | Idle ->
      let nworkers = Array.length sh.ws in
      if sh.remaining <= 0 then Sched.flat_exit k f
      else
        let j = Taskq.pop w.dq in
        if j >= 0 then begin
          take w w.dq j;
          w.phase <- Popped;
          Sched.flat_overhead k f 20
        end
        else if nworkers = 1 then worker_step sh w ()
        else begin
          let v = Rng.int sh.srng (nworkers - 1) in
          w.victim <- (if v >= w.wid then v + 1 else v);
          w.phase <- Stealing;
          Sched.flat_overhead k f (costs.atomic_rmw + costs.cache_line_remote)
        end
  | Popped -> run_task sh w
  | Stealing ->
      let q = sh.ws.(w.victim).dq in
      let j = Taskq.steal q in
      if j < 0 then begin
        let b = w.backoff in
        w.backoff <- min (b * 2) 30_000;
        w.phase <- Idle;
        Sched.flat_overhead k f b
      end
      else begin
        take w q j;
        sh.steals <- sh.steals + 1;
        let obs = Sched.obs k in
        Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Steals;
        (let tr = obs.Iw_obs.Obs.trace in
         if tr.Iw_obs.Trace.enabled then
           Iw_obs.Trace.instant tr ~name:"steal" ~cat:"heartbeat" ~cpu:w.wid
             ~ts:(Sched.now k) ());
        run_task sh w
      end
  | Running ->
      (* Promotions shrank [cur_items]; what remains is what ran. *)
      sh.remaining <- sh.remaining - w.cur_items;
      w.backoff <- 150;
      w.phase <- Idle;
      Sched.flat_overhead k f costs.atomic_rmw

let install_nk_driver sh ~period =
  let k = sh.k in
  let plat = Sched.platform k in
  let costs = plat.Platform.costs in
  let nworkers = Array.length sh.ws in
  let targets = List.init (nworkers - 1) (fun i -> Sched.cpu k (i + 1)) in
  let handler cpu ~preempted = on_heartbeat sh cpu ~preempted in
  let after cpu = Sched.resched_or_resume k cpu in
  (* Under an active fault plan the wire may drop or delay heartbeats;
     switch the broadcast to the acknowledged, resending variant.  The
     quiet-wire path keeps the plain fire-and-forget broadcast, which
     is byte-identical to the historical behavior. *)
  let broadcast =
    if Iw_faults.Plan.enabled (Iw_faults.Plan.ambient ()) then fun () ->
      Reliable_ipi.broadcast (Sched.sim k) plat ~targets ~handler ~after
    else
      let g = Ipi.group (Sched.sim k) plat ~targets ~handler ~after in
      fun () -> Ipi.fire g
  in
  Lapic.periodic (Sched.lapic k 0) ~period
    ~handler:(fun ~preempted ->
      (* CPU 0 takes the timer vector, broadcasts one ICR write, and
         handles its own heartbeat. *)
      let c = on_heartbeat sh 0 ~preempted in
      broadcast ();
      c + costs.ipi_send)
    ~after:(fun () -> Sched.resched_or_resume k 0)
    ()

let install_linux_driver sh ~period =
  Array.map
    (fun w ->
      let t =
        Iw_linuxsim.Itimer.create sh.k ~cpu:w.wid ~period
          ~handler_cost:promotion_cost
          ~handler:(fun ~preempted -> ignore (on_heartbeat sh w.wid ~preempted))
          ()
      in
      Iw_linuxsim.Itimer.start t;
      t)
    sh.ws

(* Watchdog: detects a worker that has gone [watchdog_mult] periods
   without a heartbeat (dropped IPIs the resends also lost, a dead
   timer stream) and falls back to software polling — the promotion
   check is delivered locally, without the broken wire.  Promotion
   still happens, just later; this is the software layer backstopping
   the hardware path, one level above the IPI resend machinery.

   Only installed when a fault plan is active: on a perfect machine
   the checks would all be no-ops, and not arming them keeps the
   fault-free event schedule untouched. *)
let watchdog_mult = 4
let soft_poll_cost = 200

let install_watchdog sh ~period =
  let k = sh.k in
  let s = Sched.sim k in
  let costs = (Sched.platform k).Platform.costs in
  let obs = Sched.obs k in
  Array.iter
    (fun w ->
      let cpu = w.wid in
      let tm = Sim.timer s in
      let rec arm () = Sim.arm_after s tm (watchdog_mult * period) check
      and check () =
        if sh.remaining > 0 then begin
          let now = Sim.now s in
          if now - max 0 sh.last_beat.(cpu) >= watchdog_mult * period then begin
            Iw_obs.Counter.incr obs.Iw_obs.Obs.counters
              Iw_obs.Counter.Watchdog_fire;
            (let tr = obs.Iw_obs.Obs.trace in
             if tr.Iw_obs.Trace.enabled then
               Iw_obs.Trace.instant tr ~name:"watchdog_fire" ~cat:"heartbeat"
                 ~cpu ~ts:now ());
            Cpu.interrupt (Sched.cpu k cpu)
              ~dispatch:costs.Platform.interrupt_dispatch
              ~return_cost:costs.Platform.interrupt_return
              ~handler:(fun ~preempted ->
                on_heartbeat sh cpu ~preempted + soft_poll_cost)
              ~after:(fun () -> Sched.resched_or_resume k cpu)
          end;
          arm ()  (* stops re-arming once the workload drains *)
        end
      in
      arm ())
    sh.ws

let run ?(promote_div = 2) plat (config : config) bench =
  if config.workers < 1 then invalid_arg "Tpal.run: workers < 1";
  let plat = Platform.with_cores plat config.workers in
  let personality =
    match config.driver with
    | Nk_ipi -> Os.nautilus plat
    | Linux_signal -> Os.linux plat
  in
  let k = Sched.boot ~seed:config.seed ~personality plat in
  let sh =
    {
      k;
      ws =
        Array.init config.workers (fun wid ->
            {
              wid;
              dq = Taskq.create ();
              flat =
                Sched.spawn_flat k
                  ~spec:
                    {
                      Sched.sp_name = Printf.sprintf "tpal-%d" wid;
                      sp_cpu = Some wid;
                      sp_fp = false;
                      sp_rt = false;
                    }
                  ();
              phase = Idle;
              cur_items = 0;
              cur_grain = 0;
              backoff = 150;
              victim = 0;
            });
      promote_div = max 2 promote_div;
      remaining = total_items bench;
      promotions = 0;
      steals = 0;
      deliveries = 0;
      gaps = Stats.create ();
      last_beat = Array.make config.workers (-1);
      srng = Rng.split (Sim.rng (Sched.sim k));
      finish = 0;
    }
  in
  (* All initial work lands on worker 0; heartbeat promotion and
     stealing spread it. *)
  List.iter
    (fun r -> Taskq.push sh.ws.(0).dq ~items:r.items ~grain:r.grain)
    bench.ranges;
  Array.iter (fun w -> Sched.set_flat_step w.flat (worker_step sh w)) sh.ws;
  let period = Platform.cycles_of_us plat config.heartbeat_us in
  let itimers = ref [||] in
  (match config.driver with
  | Nk_ipi -> install_nk_driver sh ~period
  | Linux_signal -> itimers := install_linux_driver sh ~period);
  if Iw_faults.Plan.enabled (Iw_faults.Plan.ambient ()) then
    install_watchdog sh ~period;
  (* A supervisor joins the workers and dismantles the drivers. *)
  ignore
    (Sched.spawn k
       ~spec:
         { Sched.sp_name = "tpal-main"; sp_cpu = Some 0; sp_fp = false; sp_rt = false }
       (fun () ->
         Array.iter (fun w -> Api.join (Sched.flat_thread w.flat)) sh.ws;
         sh.finish <- Api.now ();
         Array.iter Iw_linuxsim.Itimer.stop !itimers));
  Sched.run ~horizon:(200 * serial_cycles bench) k;
  if sh.remaining > 0 then
    failwith
      (Printf.sprintf "tpal: %s did not finish (%d items left)"
         bench.bench_name sh.remaining);
  let elapsed = sh.finish in
  let work = Sched.total_work_cycles k in
  let overhead = Sched.total_overhead_cycles k in
  let ghz = plat.Platform.ghz in
  let seconds = float_of_int elapsed /. (ghz *. 1e9) in
  {
    bench = bench.bench_name;
    os = personality.Os.os_name;
    workers = config.workers;
    heartbeat_us = config.heartbeat_us;
    elapsed_cycles = elapsed;
    work_cycles = work;
    overhead_cycles = overhead;
    overhead_pct =
      100.0 *. float_of_int overhead /. float_of_int (max 1 (work + overhead));
    promotions = sh.promotions;
    steals = sh.steals;
    deliveries = sh.deliveries;
    target_rate_hz = 1e6 /. config.heartbeat_us;
    achieved_rate_hz =
      float_of_int sh.deliveries /. float_of_int config.workers /. seconds;
    rate_cv = Stats.coefficient_of_variation sh.gaps;
    speedup_vs_serial =
      float_of_int (serial_cycles bench) /. float_of_int elapsed;
  }
