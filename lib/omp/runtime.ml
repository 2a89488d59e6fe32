open Iw_engine
open Iw_kernel

type mode = Linux_user | Rtk | Pik | Cck

let mode_name = function
  | Linux_user -> "linux-omp"
  | Rtk -> "rtk"
  | Pik -> "pik"
  | Cck -> "cck"

let personality_of_mode mode plat =
  match mode with
  | Linux_user -> Os.linux plat
  | Rtk | Pik | Cck -> Os.nautilus plat

type schedule = Static | Dynamic of int | Guided of int

type region = {
  r_iters : int;
  r_cycles : int -> int;
  r_sched : schedule;
  mutable r_next : int;
}

(* Where a team member is in its share of a region or, for a worker,
   in the loop around it.  The share phases are one state machine that
   both the workers (flat threads) and the master (a coroutine) step
   through [share_next]. *)
type phase =
  | Await  (* worker: poll for the next generation *)
  | Begin  (* share: start (PIK shim) *)
  | First  (* share: static chunk, or the first fetch *)
  | Fetched  (* share: paid a fetch; claim a chunk *)
  | Ran  (* share: a chunk's work is done *)
  | Arrive  (* worker: paid the arrival; count it *)

type member = {
  wid : int;
  mutable cpu : int;  (* bound CPU: span track and fault attribution *)
  mutable ph : phase;
  mutable gen : int;  (* worker: next generation to run *)
  mutable spins : int;
  mutable work : bool;  (* the cycles [share_next] returned are work *)
  mutable share_start : int;
  mutable chunk_start : int;
}

type t = {
  k : Sched.t;
  mode : mode;
  nthreads : int;
  mutable gen : int;  (* region generation; bump = release *)
  mutable region : region option;
  mutable arrived : int;  (* workers done with the current region *)
  mutable lost : int;  (* arrivals swallowed by injected barrier faults *)
  mutable team : Sched.thread list;
  master : member;
  tasks : Task.t option;  (* CCK backend *)
  mutable stopping : bool;
  mutable nregions : int;
  mutable nchunks : int;
}

(* The PIK process abstraction interposes a thin shim on each runtime
   call (§V-A). *)
let pik_shim = 100

(* Active-wait polling, libomp-style (OMP_WAIT_POLICY=active): tight
   at first, then progressively lazier so idle teams don't flood the
   simulator with events. *)
let poll_cost spins =
  if spins < 16 then 150 else if spins < 64 then 1_500 else 15_000

let sum_cycles f lo hi =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := !acc + f i
  done;
  !acc

let trace t = (Sched.obs t.k).Iw_obs.Obs.trace
let tracing t = (trace t).Iw_obs.Trace.enabled
let costs t = (Sched.platform t.k).Iw_hw.Platform.costs

(* A CCK task's chunk, wrapped in an "omp_chunk" span on the running
   CPU's track when tracing is on.  The R_now/R_cpu scheduler requests
   are pure queries (the thread continues immediately, no cost is
   charged), so the traced and untraced runs stay cycle-identical. *)
let consume_chunk tr cycles =
  if tr.Iw_obs.Trace.enabled then begin
    let cpu = Api.cpu_id () in
    let start = Api.now () in
    Coro.consume cycles;
    Iw_obs.Trace.span tr ~name:"omp_chunk" ~cat:"omp" ~cpu ~ts:start
      ~dur:(Api.now () - start)
      ()
  end
  else Coro.consume cycles

let overhead m c =
  m.work <- false;
  c

let fetch_cost t =
  let c = costs t in
  c.atomic_rmw + if t.nthreads > 1 then c.cache_line_remote else 0

let fetch t m =
  m.ph <- Fetched;
  overhead m (fetch_cost t)

let chunk_size t r =
  match r.r_sched with
  | Static -> assert false  (* static shares never fetch *)
  | Dynamic chunk -> max 1 chunk
  | Guided min_chunk ->
      max (max 1 min_chunk) ((r.r_iters - r.r_next) / (2 * t.nthreads))

(* Claim iterations [lo, hi) as one chunk: its work is what the member
   is charged next. *)
let run_chunk t r m lo hi =
  t.nchunks <- t.nchunks + 1;
  let cycles = sum_cycles r.r_cycles lo hi in
  if tracing t then m.chunk_start <- Sched.now t.k;
  m.ph <- Ran;
  m.work <- true;
  cycles

(* The member's whole share of the region, enclosing its chunk spans
   (and the hw grant spans inside them) on its CPU's track; emitted
   after the chunks, as the profiler's tie-break expects. *)
let end_share t m =
  let tr = trace t in
  if tr.Iw_obs.Trace.enabled then
    Iw_obs.Trace.span tr ~name:"omp_share" ~cat:"omp" ~cpu:m.cpu
      ~ts:m.share_start
      ~dur:(Sched.now t.k - m.share_start)
      ();
  -1

(* Advance member [m]'s share of [r] from phase [m.ph]: do what is due
   now and return the cycles to charge next ([m.work] tells work from
   overhead), or -1 when the share is over.  Static takes one
   contiguous block; Dynamic and Guided pay a fetch before every
   claim, the last one finding the loop drained. *)
let rec share_next t r m =
  match m.ph with
  | Begin ->
      if tracing t then m.share_start <- Sched.now t.k;
      m.ph <- First;
      if t.mode = Pik then overhead m pik_shim else share_next t r m
  | First -> (
      match r.r_sched with
      | Static ->
          let lo = m.wid * r.r_iters / t.nthreads in
          let hi = (m.wid + 1) * r.r_iters / t.nthreads in
          if hi > lo then run_chunk t r m lo hi else end_share t m
      | Dynamic _ | Guided _ -> fetch t m)
  | Fetched ->
      if r.r_next < r.r_iters then begin
        let lo = r.r_next in
        let hi = min r.r_iters (lo + chunk_size t r) in
        r.r_next <- hi;
        run_chunk t r m lo hi
      end
      else end_share t m
  | Ran -> (
      let tr = trace t in
      if tr.Iw_obs.Trace.enabled then
        Iw_obs.Trace.span tr ~name:"omp_chunk" ~cat:"omp" ~cpu:m.cpu
          ~ts:m.chunk_start
          ~dur:(Sched.now t.k - m.chunk_start)
          ();
      match r.r_sched with
      | Static -> end_share t m
      | Dynamic _ | Guided _ -> fetch t m)
  | Await | Arrive -> invalid_arg "Omp: share_next outside a share"

(* Barrier arrival: [arrive_cost] is paid first, then [count_arrival].
   Barrier_drop injection: the arrival increment is lost (a dropped
   cache-line update), so the master would spin forever on
   [arrived < nthreads]; the lost count is kept so the master's
   barrier audit — the recovery, one layer up — can find it. *)
let arrive_cost t =
  let c = costs t in
  c.atomic_rmw + c.cache_line_remote

let count_arrival t m =
  let plan = Iw_faults.Plan.ambient () in
  if
    Iw_faults.Plan.enabled plan
    && Iw_faults.Plan.fire plan (Sched.obs t.k)
         ~kind:Iw_faults.Plan.Barrier_drop ~cpu:m.cpu ~ts:(Sched.now t.k)
  then t.lost <- t.lost + 1
  else t.arrived <- t.arrived + 1

(* A team worker as a flat thread: poll the generation with lazier
   and lazier spins, run its share of each released region, arrive,
   and exit once the team is stopping. *)
let rec worker_step t m f () =
  match m.ph with
  | Await ->
      if t.stopping then Sched.flat_exit t.k f
      else if t.gen >= m.gen then begin
        match t.region with
        | Some _ ->
            m.ph <- Begin;
            worker_step t m f ()
        | None ->
            m.ph <- Arrive;
            Sched.flat_overhead t.k f (arrive_cost t)
      end
      else begin
        let c = poll_cost m.spins in
        m.spins <- m.spins + 1;
        Sched.flat_overhead t.k f c
      end
  | Arrive ->
      count_arrival t m;
      m.gen <- m.gen + 1;
      m.spins <- 0;
      m.ph <- Await;
      worker_step t m f ()
  | Begin | First | Fetched | Ran -> (
      match t.region with
      | None -> invalid_arg "Omp: region withdrawn mid-share"
      | Some r ->
          let c = share_next t r m in
          if c < 0 then begin
            m.ph <- Arrive;
            Sched.flat_overhead t.k f (arrive_cost t)
          end
          else if m.work then Sched.flat_work t.k f c
          else Sched.flat_overhead t.k f c)

let member wid =
  {
    wid;
    cpu = wid;
    ph = Await;
    gen = 1;
    spins = 0;
    work = false;
    share_start = 0;
    chunk_start = 0;
  }

let create k mode ~nthreads =
  if nthreads < 1 then invalid_arg "Omp.create: nthreads < 1";
  if nthreads > Sched.cpu_count k then
    invalid_arg "Omp.create: more threads than CPUs";
  let t =
    {
      k;
      mode;
      nthreads;
      gen = 0;
      region = None;
      arrived = 0;
      lost = 0;
      team = [];
      master = { (member 0) with cpu = -1 };
      tasks = (match mode with Cck -> Some (Task.create k ()) | _ -> None);
      stopping = false;
      nregions = 0;
      nchunks = 0;
    }
  in
  (match mode with
  | Cck -> ()  (* the task framework's per-CPU daemons are the team *)
  | Linux_user | Rtk | Pik ->
      t.team <-
        List.init (nthreads - 1) (fun i ->
            let wid = i + 1 in
            let f =
              Sched.spawn_flat k
                ~spec:
                  {
                    Sched.sp_name = Printf.sprintf "omp-%d" wid;
                    sp_cpu = Some wid;
                    sp_fp = true;
                    sp_rt = false;
                  }
                ()
            in
            Sched.set_flat_step f (worker_step t (member wid) f);
            Sched.flat_thread f));
  t

(* The master's share, driven through the same state machine with
   coroutine requests. *)
let master_share t r =
  let m = t.master in
  if m.cpu < 0 then m.cpu <- Api.cpu_id ();
  m.ph <- Begin;
  let rec go () =
    let c = share_next t r m in
    if c >= 0 then begin
      if m.work then Coro.consume c else Api.overhead c;
      go ()
    end
  in
  go ();
  Api.overhead (arrive_cost t);
  count_arrival t m

let parallel_for t ?(schedule = Static) ~iters ~iter_cycles () =
  if iters < 0 then invalid_arg "Omp.parallel_for: negative iters";
  t.nregions <- t.nregions + 1;
  let obs = Sched.obs t.k in
  Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Omp_regions;
  let chunks_before = t.nchunks in
  let region_start = Sched.now t.k in
  let costs = (Sched.platform t.k).Iw_hw.Platform.costs in
  (match t.tasks with
  | Some tf ->
      (* CCK: pragmas compiled straight to kernel tasks. *)
      let nchunks = max 1 (min iters (4 * t.nthreads)) in
      let handles = ref [] in
      for c = 0 to nchunks - 1 do
        let lo = c * iters / nchunks and hi = (c + 1) * iters / nchunks in
        if hi > lo then begin
          let cost = sum_cycles iter_cycles lo hi in
          t.nchunks <- t.nchunks + 1;
          let h =
            Task.submit ~cpu:(c mod t.nthreads) ~size_hint:cost tf (fun () ->
                consume_chunk obs.Iw_obs.Obs.trace cost)
          in
          handles := h :: !handles
        end
      done;
      List.iter Task.wait !handles
  | None ->
      let r =
        {
          r_iters = iters;
          r_cycles = iter_cycles;
          r_sched = schedule;
          r_next = 0;
        }
      in
      t.region <- Some r;
      t.arrived <- 0;
      if t.mode = Pik then Api.overhead pik_shim;
      (* Publishing the region is one shared-line write the spinning
         team observes; not a per-worker syscall chain. *)
      Api.overhead (costs.atomic_rmw + costs.cache_line_remote);
      t.gen <- t.gen + 1;
      master_share t r;
      (* Implicit barrier: the master waits for every team member.
         Recovery for dropped arrivals lives here, one layer above the
         injection: once the polling has gone lazy (the team should
         long since have arrived), the master audits the barrier word
         — rereading every member's progress costs a line transfer per
         thread — and credits any arrival whose increment was lost. *)
      let audit_cost = t.nthreads * costs.cache_line_remote in
      let rec wait spins =
        if t.arrived < t.nthreads then begin
          Api.overhead (poll_cost spins);
          if spins >= 64 && spins mod 64 = 0 && t.lost > 0 then begin
            Api.overhead audit_cost;
            t.arrived <- t.arrived + t.lost;
            t.lost <- 0;
            let obs = Sched.obs t.k in
            Iw_obs.Counter.incr obs.Iw_obs.Obs.counters
              Iw_obs.Counter.Barrier_recover
          end;
          wait (spins + 1)
        end
      in
      wait 0;
      t.region <- None);
  Iw_obs.Counter.add obs.Iw_obs.Obs.counters Iw_obs.Counter.Omp_chunks
    (t.nchunks - chunks_before);
  let tr = obs.Iw_obs.Obs.trace in
  if tr.Iw_obs.Trace.enabled then
    Iw_obs.Trace.span tr ~name:"omp_region" ~cat:"omp" ~cpu:(-1)
      ~ts:region_start
      ~dur:(Sched.now t.k - region_start)
      ()

let serial_for ~iters ~iter_cycles =
  Coro.consume (sum_cycles iter_cycles 0 iters)

let shutdown t =
  t.stopping <- true;
  List.iter Api.join t.team;
  match t.tasks with Some tf -> Task.shutdown tf | None -> ()

let regions t = t.nregions
let chunks_dispatched t = t.nchunks
