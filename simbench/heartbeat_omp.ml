(* heartbeat-omp: the periodic side of the engine, hw and kernel
   layers.  Tpal.run over the heartbeat suite with both signal drivers
   (LAPIC timer + IPI broadcast on Nautilus, per-worker POSIX timers
   on Linux), 16 workers, 20 us heartbeats, on the KNL platform; then
   Nas.run on BT and SP under the RTK and Linux user-level OpenMP
   modes.  The suite's item counts are divided by [shrink] so one
   iteration stays well under a second; ranges and grains keep their
   shapes.  A collecting observability context around each call gives
   the machine-wide counter totals. *)

open Iw_heartbeat
module Counter = Iw_obs.Counter
module Obs = Iw_obs.Obs

let plat = Iw_hw.Platform.knl
let drivers = [ Tpal.Nk_ipi; Tpal.Linux_signal ]
let nas = [ (Iw_omp.Nas.bt, 32); (Iw_omp.Nas.sp, 32) ]
let modes = [ Iw_omp.Runtime.Rtk; Iw_omp.Runtime.Linux_user ]

let shrunk shrink (b : Tpal.bench) =
  {
    b with
    Tpal.ranges = List.map (fun r -> { r with Tpal.items = max 1 (r.Tpal.items / shrink) }) b.ranges;
  }

(* Run [f] under a fresh collecting context; return its result and
   the counter totals of every component it created. *)
let collecting f =
  let obs = Obs.create ~collect:true () in
  let r = Obs.with_ambient obs f in
  (r, Obs.total_counters obs)

type call =
  | Tpal_run of Tpal.bench * Tpal.config
  | Nas_run of Iw_omp.Nas.benchmark * Iw_omp.Runtime.mode * int * int  (** nthreads, seed *)

type result = Tpal_done of Tpal.bench * Tpal.report | Nas_done of Iw_omp.Nas.benchmark * Iw_omp.Nas.result

let calls ~shrink ~seed =
  List.concat_map
    (fun driver ->
      List.map
        (fun b -> Tpal_run (shrunk shrink b, { Tpal.workers = 16; heartbeat_us = 20.0; driver; seed }))
        Tpal.suite)
    drivers
  @ List.concat_map
      (fun mode -> List.map (fun (b, nthreads) -> Nas_run (b, mode, nthreads, seed)) nas)
      modes

let run spans = function
  | Tpal_run (b, cfg) ->
      Span.with_ spans "heartbeat.run" (fun () ->
          collecting (fun () -> Tpal_done (b, Tpal.run plat cfg b)))
  | Nas_run (b, mode, nthreads, seed) ->
      Span.with_ spans "omp.run" (fun () ->
          collecting (fun () -> Nas_done (b, Iw_omp.Nas.run ~seed plat mode ~nthreads b)))

let elapsed = function
  | Tpal_done (_, r) -> r.Tpal.elapsed_cycles
  | Nas_done (_, r) -> r.Iw_omp.Nas.elapsed_cycles

let digest results =
  Bench.digest_of
    (List.concat_map
       (fun (res, totals) ->
         (match res with
         | Tpal_done (_, r) ->
             List.map string_of_int
               [ r.elapsed_cycles; r.work_cycles; r.overhead_cycles; r.promotions; r.steals; r.deliveries ]
             @ [ Bench.hexf r.rate_cv ]
         | Nas_done (_, r) -> List.map string_of_int [ r.elapsed_cycles; r.regions_run ])
         @ List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Counter.to_list totals))
       results)

let check results =
  List.fold_left
    (fun problems (res, _) ->
      match res with
      | Tpal_done (b, r) ->
          Bench.check
            (r.work_cycles = Tpal.total_work b)
            (Printf.sprintf "heartbeat-omp tpal %s/%s: work_cycles %d <> total_work %d" b.bench_name
               r.os r.work_cycles (Tpal.total_work b))
            problems
      | Nas_done (b, r) ->
          let expected = b.steps * List.length b.step_regions in
          Bench.check (r.regions_run = expected)
            (Printf.sprintf "heartbeat-omp nas %s/%s: regions_run %d <> %d" b.nas_name
               (Iw_omp.Runtime.mode_name r.mode) r.regions_run expected)
            problems)
    [] results

let counts results =
  let total id = float_of_int (List.fold_left (fun acc (_, c) -> acc + Counter.get c id) 0 results) in
  let tpal = List.filter_map (function Tpal_done (_, r), _ -> Some r | _ -> None) results in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 tpal) in
  (* Heartbeats delivered to workers over those the timer should have
     raised: elapsed time over the period, once per worker. *)
  let expected =
    List.fold_left
      (fun acc (r : Tpal.report) ->
        acc
        +. Iw_hw.Platform.us_of_cycles plat r.elapsed_cycles
           /. r.heartbeat_us *. float_of_int r.workers)
      0.0 tpal
  in
  [
    ("hw.irq_dispatches", total Counter.Irq_dispatches);
    ("hw.ipi_sends", total Counter.Ipi_sends);
    ("kernel.context_switches", total Counter.Context_switches);
    ("kernel.preemptions", total Counter.Preemptions);
    ("engine.timer_fires", total Counter.Timer_fires);
    ("heartbeat.promotions", sum (fun r -> r.promotions));
    ("heartbeat.steals", sum (fun r -> r.steals));
    ("heartbeat.delivery_ratio", if expected > 0.0 then sum (fun r -> r.deliveries) /. expected else 0.0);
    ("omp.chunks", total Counter.Omp_chunks);
    ("omp.regions", total Counter.Omp_regions);
  ]

let make ?(shrink = 5) () =
  let generate ~seed =
    let inputs = Array.init Bench.variants (fun v -> calls ~shrink ~seed:(Bench.variant_seed ~seed v)) in
    fun v spans ->
      let results = List.map (run spans) inputs.(v) in
      fun () ->
        let cycles = List.fold_left (fun acc (res, _) -> acc + elapsed res) 0 results in
        {
          Bench.ops = cycles / 1000;
          digest = digest results;
          problems = check results;
          counts = counts results;
        }
  in
  {
    Bench.name = "heartbeat-omp";
    op = "simulated kilocycle";
    rate_alias = ("sim_mcycles_per_s", 1e-3);
    generate;
  }
