(* Tests for the linuxsim timers and the TPAL heartbeat runtime. *)

open Iw_kernel
open Iw_heartbeat

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plat4 = Iw_hw.Platform.with_cores Iw_hw.Platform.knl 4

(* ------------------------------------------------------------------ *)
(* Itimer (linuxsim) *)

let test_itimer_delivers_periodically () =
  let k = Iw_linuxsim.Linux.boot ~seed:1 plat4 in
  let hits = ref 0 in
  let tm =
    Iw_linuxsim.Itimer.create k ~cpu:0 ~period:200_000
      ~handler:(fun ~preempted ->
        incr hits;
        if preempted >= 0 then Sched.stash_preempted k 0 preempted)
      ()
  in
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 } (fun () ->
         Api.work 2_000_000));
  Iw_linuxsim.Itimer.start tm;
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 1 } (fun () ->
         Api.work 2_100_000;
         Iw_linuxsim.Itimer.stop tm));
  Sched.run k;
  check_bool
    (Printf.sprintf "roughly one per period (%d)" !hits)
    true
    (!hits >= 6 && !hits <= 11)

let test_itimer_jitter_positive () =
  let k = Iw_linuxsim.Linux.boot ~seed:1 plat4 in
  let tm =
    Iw_linuxsim.Itimer.create k ~cpu:0 ~period:100_000
      ~handler:(fun ~preempted ->
        if preempted >= 0 then Sched.stash_preempted k 0 preempted)
      ()
  in
  Iw_linuxsim.Itimer.start tm;
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 1 } (fun () ->
         Api.work 1_500_000;
         Iw_linuxsim.Itimer.stop tm));
  Sched.run k;
  let times = Iw_linuxsim.Itimer.delivery_times tm in
  check_bool "some deliveries" true (List.length times >= 5);
  (* Every delivery happens at or after its grid point. *)
  List.iteri
    (fun i t -> check_bool "after grid" true (t >= (i + 1) * 100_000))
    times

let test_itimer_coalesces_overruns () =
  (* Period far smaller than the delivery chain: most expiries must
     coalesce rather than queue without bound. *)
  let k = Iw_linuxsim.Linux.boot ~seed:1 plat4 in
  let tm =
    Iw_linuxsim.Itimer.create k ~cpu:0 ~period:1_000 ~handler_cost:4_000
      ~handler:(fun ~preempted ->
        if preempted >= 0 then Sched.stash_preempted k 0 preempted)
      ()
  in
  Iw_linuxsim.Itimer.start tm;
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 1 } (fun () ->
         Api.work 400_000;
         Iw_linuxsim.Itimer.stop tm));
  Sched.run k;
  check_bool "overruns counted" true (Iw_linuxsim.Itimer.overruns tm > 10);
  check_bool "delivered less than expired" true
    (Iw_linuxsim.Itimer.delivered tm < 400)

(* ------------------------------------------------------------------ *)
(* Deque *)

let test_deque_lifo_owner_fifo_thief () =
  let d = Deque.create () in
  List.iter (Deque.push_bottom d) [ 1; 2; 3 ];
  check_int "owner pops newest" 3 (Option.get (Deque.pop_bottom d));
  check_int "thief steals oldest" 1 (Option.get (Deque.steal_top d));
  check_int "one left" 1 (Deque.length d);
  check_int "last" 2 (Option.get (Deque.pop_bottom d));
  check_bool "empty" true (Deque.pop_bottom d = None && Deque.steal_top d = None)

(* Random push/pop/steal sequences against a list model (newest
   first).  Three pushes to each pop and steal, so the ring both wraps
   and grows past its initial 8 slots. *)
let prop_deque_model =
  QCheck.Test.make ~name:"deque agrees with a list model" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 300) (pair (int_bound 4) small_nat))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.for_all
        (fun (op, x) ->
          let agree =
            match op with
            | 0 | 1 | 2 ->
                Deque.push_bottom d x;
                model := x :: !model;
                true
            | 3 ->
                let expect =
                  match !model with
                  | [] -> None
                  | y :: rest ->
                      model := rest;
                      Some y
                in
                Deque.pop_bottom d = expect
            | _ ->
                let expect =
                  match List.rev !model with
                  | [] -> None
                  | y :: rest ->
                      model := List.rev rest;
                      Some y
                in
                Deque.steal_top d = expect
          in
          agree
          && Deque.length d = List.length !model
          && Deque.is_empty d = (!model = []))
        ops)

(* ------------------------------------------------------------------ *)
(* TPAL *)

let small_bench =
  { Tpal.bench_name = "test"; ranges = [ { items = 400_000; grain = 20 } ] }

let run_tpal ?(workers = 4) ?(hb = 50.0) driver =
  Tpal.run Iw_hw.Platform.knl
    { workers; heartbeat_us = hb; driver; seed = 17 }
    small_bench

let test_tpal_completes_all_items () =
  (* Tpal.run raises if any item is lost; also check conservation via
     the work accounting: every item's grain must be executed. *)
  let r = run_tpal Tpal.Nk_ipi in
  check_bool "work conserved" true
    (r.work_cycles >= Tpal.total_work small_bench)

let test_tpal_parallelizes () =
  let r = run_tpal Tpal.Nk_ipi in
  check_bool
    (Printf.sprintf "speedup %.2f > 3 on 4 workers" r.speedup_vs_serial)
    true
    (r.speedup_vs_serial > 3.0)

let test_tpal_promotions_happen () =
  let r = run_tpal Tpal.Nk_ipi in
  check_bool "promotions" true (r.promotions > 5);
  check_bool "steals spread work" true (r.steals > 0)

let test_tpal_nk_rate_exact () =
  let r = run_tpal ~hb:20.0 Tpal.Nk_ipi in
  let err = abs_float (r.achieved_rate_hz -. r.target_rate_hz) /. r.target_rate_hz in
  check_bool
    (Printf.sprintf "rate within 5%% (%.0f vs %.0f)" r.achieved_rate_hz
       r.target_rate_hz)
    true (err < 0.05);
  check_bool "steady" true (r.rate_cv < 0.05)

let test_tpal_linux_worse_at_fine_grain () =
  let nk = run_tpal ~hb:20.0 Tpal.Nk_ipi in
  let lx = run_tpal ~hb:20.0 Tpal.Linux_signal in
  check_bool "linux jittery vs nk" true (lx.rate_cv > (2.0 *. nk.rate_cv) +. 0.05);
  check_bool "linux achieves less" true
    (lx.achieved_rate_hz < nk.achieved_rate_hz);
  check_bool "linux overhead higher" true (lx.overhead_pct > nk.overhead_pct)

let test_tpal_single_worker_serial () =
  let r = run_tpal ~workers:1 Tpal.Nk_ipi in
  check_bool "speedup ~1" true
    (r.speedup_vs_serial > 0.85 && r.speedup_vs_serial <= 1.01)

let test_tpal_deterministic () =
  let a = run_tpal Tpal.Nk_ipi and b = run_tpal Tpal.Nk_ipi in
  check_int "same elapsed" a.elapsed_cycles b.elapsed_cycles;
  check_int "same promotions" a.promotions b.promotions

(* ------------------------------------------------------------------ *)
(* TPAL under fault injection: the heartbeat must keep promoting even
   when the timer or the IPI wire misbehaves. *)

module Plan = Iw_faults.Plan

let run_tpal_faulted ~kinds ~rate =
  let obs = Iw_obs.Obs.create ~collect:true () in
  let r =
    Iw_obs.Obs.with_ambient obs (fun () ->
        Plan.with_ambient
          (Plan.create ~kinds ~rate ~seed:42 ())
          (fun () -> run_tpal ~hb:20.0 Tpal.Nk_ipi))
  in
  (r, Iw_obs.Obs.total_counters obs)

let test_tpal_survives_ipi_drops () =
  let r, c = run_tpal_faulted ~kinds:[ Plan.Ipi_drop ] ~rate:0.2 in
  check_bool "work conserved under drops" true
    (r.work_cycles >= Tpal.total_work small_bench);
  check_bool "promotions still happen" true (r.promotions > 5);
  check_bool "faults actually injected" true
    (Iw_obs.Counter.get c Iw_obs.Counter.Fault_injected > 0);
  check_bool "dropped IPIs were resent" true
    (Iw_obs.Counter.get c Iw_obs.Counter.Ipi_retry > 0)

let test_tpal_watchdog_covers_dead_timer () =
  (* 90% of APIC fires swallowed: the watchdog's software poll has to
     carry the heartbeat, and promotion must still complete the run. *)
  let r, c = run_tpal_faulted ~kinds:[ Plan.Timer_miss ] ~rate:0.9 in
  check_bool "work conserved under timer loss" true
    (r.work_cycles >= Tpal.total_work small_bench);
  check_bool "promotions still happen" true (r.promotions > 5);
  check_bool "watchdog fired" true
    (Iw_obs.Counter.get c Iw_obs.Counter.Watchdog_fire > 0)

let test_tpal_rate_zero_plan_is_noop () =
  (* An enabled rate-0 plan arms all the recovery machinery (reliable
     broadcast, watchdog) but injects nothing; the run's results must
     match a plain run exactly. *)
  let base = run_tpal ~hb:20.0 Tpal.Nk_ipi in
  let r, c = run_tpal_faulted ~kinds:Plan.all_kinds ~rate:0.0 in
  check_int "same elapsed" base.elapsed_cycles r.elapsed_cycles;
  check_int "same promotions" base.promotions r.promotions;
  check_int "no faults injected" 0
    (Iw_obs.Counter.get c Iw_obs.Counter.Fault_injected);
  check_int "no retries" 0 (Iw_obs.Counter.get c Iw_obs.Counter.Ipi_retry);
  check_int "no watchdog fires" 0
    (Iw_obs.Counter.get c Iw_obs.Counter.Watchdog_fire)

(* ------------------------------------------------------------------ *)
(* Tree TPAL (nested fork-join) *)

let test_tree_counts () =
  let b = Tpal_tree.fib 10 in
  (* fib tree node count: 2*fib(n+1)-1 *)
  check_int "node count" ((2 * 89) - 1) (Tpal_tree.total_nodes b);
  check_bool "work positive" true (Tpal_tree.total_work b > 0)

let run_tree ?(workers = 4) policy =
  Tpal_tree.run Iw_hw.Platform.knl
    { workers; heartbeat_us = 30.0; policy; seed = 4 }
    (Tpal_tree.fib 18)

let test_tree_runs_all_nodes () =
  let b = Tpal_tree.fib 18 in
  let r = run_tree Tpal_tree.Promote_oldest in
  check_int "every node executed" (Tpal_tree.total_nodes b) r.nodes_run

let test_tree_parallelizes () =
  let r = run_tree Tpal_tree.Promote_oldest in
  check_bool
    (Printf.sprintf "speedup %.2f > 2.5 on 4 workers" r.speedup_vs_serial)
    true
    (r.speedup_vs_serial > 2.5)

let test_tree_oldest_beats_newest () =
  let oldest = run_tree Tpal_tree.Promote_oldest in
  let newest = run_tree Tpal_tree.Promote_newest in
  check_bool
    (Printf.sprintf "oldest %.2f > newest %.2f" oldest.speedup_vs_serial
       newest.speedup_vs_serial)
    true
    (oldest.speedup_vs_serial > newest.speedup_vs_serial);
  check_bool "newest steals more (smaller tasks)" true
    (newest.steals > oldest.steals)

let test_tree_single_worker () =
  let r = run_tree ~workers:1 Tpal_tree.Promote_oldest in
  check_bool "speedup ~1 serial" true
    (r.speedup_vs_serial > 0.8 && r.speedup_vs_serial <= 1.01)

let test_tree_skewed_completes () =
  let b = Tpal_tree.skewed ~depth:500 () in
  let r =
    Tpal_tree.run Iw_hw.Platform.knl
      { workers = 4; heartbeat_us = 30.0; policy = Tpal_tree.Promote_oldest; seed = 4 }
      b
  in
  check_int "all nodes" (Tpal_tree.total_nodes b) r.nodes_run

(* The periodic path allocates nothing in steady state: a 1/5-size
   spmv on 16 workers at 20 us heartbeats, measured over the whole
   [Tpal.run] (so the per-run set-up is included) and divided by the
   heartbeats delivered.  Coroutine workers and per-send IPI closures
   read ~135 (IPI) and ~151 (signal); the flat path reads ~3 and ~9,
   where the signal driver's rest is its jitter draws returning boxed
   floats across modules (none under cross-module inlining). *)
let test_alloc_per_delivery () =
  let b =
    {
      Tpal.spmv with
      ranges = List.map (fun r -> { r with Tpal.items = r.Tpal.items / 5 }) Tpal.spmv.ranges;
    }
  in
  List.iter
    (fun (driver, budget) ->
      let before = Gc.minor_words () in
      let r =
        Tpal.run Iw_hw.Platform.knl { workers = 16; heartbeat_us = 20.0; driver; seed = 1 } b
      in
      let words = (Gc.minor_words () -. before) /. float_of_int r.deliveries in
      check_bool
        (Printf.sprintf "%s: %.2f minor words/delivery <= %.0f" r.os words budget)
        true (words <= budget))
    [ (Tpal.Nk_ipi, 6.0); (Tpal.Linux_signal, 18.0) ]

let test_suite_benches_well_formed () =
  List.iter
    (fun (b : Tpal.bench) ->
      check_bool (b.bench_name ^ " items") true (Tpal.total_items b > 0);
      check_bool (b.bench_name ^ " work") true (Tpal.total_work b > 1_000_000))
    Tpal.suite;
  check_int "six benches" 6 (List.length Tpal.suite)

let () =
  Alcotest.run "heartbeat"
    [
      ( "itimer",
        [
          Alcotest.test_case "periodic delivery" `Quick
            test_itimer_delivers_periodically;
          Alcotest.test_case "jitter positive" `Quick test_itimer_jitter_positive;
          Alcotest.test_case "coalesces overruns" `Quick
            test_itimer_coalesces_overruns;
        ] );
      ( "deque",
        [
          Alcotest.test_case "lifo/fifo ends" `Quick test_deque_lifo_owner_fifo_thief;
          QCheck_alcotest.to_alcotest prop_deque_model;
        ] );
      ( "tpal",
        [
          Alcotest.test_case "completes all items" `Quick
            test_tpal_completes_all_items;
          Alcotest.test_case "parallelizes" `Quick test_tpal_parallelizes;
          Alcotest.test_case "promotions happen" `Quick
            test_tpal_promotions_happen;
          Alcotest.test_case "nk rate exact" `Quick test_tpal_nk_rate_exact;
          Alcotest.test_case "linux worse at 20us" `Quick
            test_tpal_linux_worse_at_fine_grain;
          Alcotest.test_case "single worker" `Quick test_tpal_single_worker_serial;
          Alcotest.test_case "deterministic" `Quick test_tpal_deterministic;
          Alcotest.test_case "suite well-formed" `Quick
            test_suite_benches_well_formed;
          Alcotest.test_case "allocation budget" `Quick test_alloc_per_delivery;
        ] );
      ( "tpal-faults",
        [
          Alcotest.test_case "survives ipi drops" `Quick
            test_tpal_survives_ipi_drops;
          Alcotest.test_case "watchdog covers dead timer" `Quick
            test_tpal_watchdog_covers_dead_timer;
          Alcotest.test_case "rate-0 plan is a no-op" `Quick
            test_tpal_rate_zero_plan_is_noop;
        ] );
      ( "tpal-tree",
        [
          Alcotest.test_case "tree counts" `Quick test_tree_counts;
          Alcotest.test_case "runs all nodes" `Quick test_tree_runs_all_nodes;
          Alcotest.test_case "parallelizes" `Quick test_tree_parallelizes;
          Alcotest.test_case "oldest beats newest" `Quick
            test_tree_oldest_beats_newest;
          Alcotest.test_case "single worker" `Quick test_tree_single_worker;
          Alcotest.test_case "skewed completes" `Quick
            test_tree_skewed_completes;
        ] );
    ]
