(* Tests for the OpenMP runtime, the NAS surrogates, and EPCC. *)

open Iw_kernel
open Iw_omp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plat n = Iw_hw.Platform.with_cores Iw_hw.Platform.knl n

(* Run one parallel_for and return (elapsed, per-iteration hits). *)
let run_region ?(mode = Runtime.Rtk) ?(nthreads = 4) ?schedule ~iters iter_cycles =
  let plat = plat nthreads in
  let k = Sched.boot ~seed:3 ~personality:(Runtime.personality_of_mode mode plat) plat in
  let finish = ref 0 in
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 } (fun () ->
         let t = Runtime.create k mode ~nthreads in
         Runtime.parallel_for t ?schedule ~iters ~iter_cycles ();
         finish := Api.now ();
         Runtime.shutdown t));
  Sched.run k;
  !finish

let test_parallel_for_faster_than_serial () =
  let iters = 4000 and cost = 1000 in
  let par = run_region ~nthreads:4 ~iters (fun _ -> cost) in
  check_bool
    (Printf.sprintf "elapsed %d ~ serial/3 at least" par)
    true
    (par < iters * cost / 3)

let test_every_mode_runs () =
  List.iter
    (fun mode ->
      let e = run_region ~mode ~nthreads:4 ~iters:2000 (fun _ -> 500) in
      check_bool (Runtime.mode_name mode ^ " completes") true (e > 0))
    [ Runtime.Linux_user; Runtime.Rtk; Runtime.Pik; Runtime.Cck ]

let test_dynamic_beats_static_under_imbalance () =
  (* All the expensive iterations are at the end: a static partition
     lands them on one thread. *)
  let skew i = if i >= 3584 then 4000 else 50 in
  let st = run_region ~nthreads:8 ~schedule:Runtime.Static ~iters:4096 skew in
  let dy =
    run_region ~nthreads:8 ~schedule:(Runtime.Dynamic 32) ~iters:4096 skew
  in
  check_bool (Printf.sprintf "dynamic %d < static %d" dy st) true (dy < st)

let test_guided_completes_and_scales () =
  let g =
    run_region ~nthreads:8 ~schedule:(Runtime.Guided 16) ~iters:8192
      (fun _ -> 300)
  in
  check_bool "guided parallelizes" true (g < 8192 * 300 / 4)

let test_pik_close_to_rtk () =
  let bench = Nas.sp in
  let rtk = (Nas.run (plat 8) Runtime.Rtk ~nthreads:8 bench).elapsed_cycles in
  let pik = (Nas.run (plat 8) Runtime.Pik ~nthreads:8 bench).elapsed_cycles in
  let diff = abs (rtk - pik) in
  check_bool
    (Printf.sprintf "pik within 2%% of rtk (%d vs %d)" pik rtk)
    true
    (100 * diff < 2 * rtk)

let test_rtk_beats_linux () =
  let bench = Nas.bt in
  let lx =
    (Nas.run Iw_hw.Platform.knl Runtime.Linux_user ~nthreads:16 bench)
      .elapsed_cycles
  in
  let rtk =
    (Nas.run Iw_hw.Platform.knl Runtime.Rtk ~nthreads:16 bench).elapsed_cycles
  in
  check_bool (Printf.sprintf "rtk %d < linux %d" rtk lx) true (rtk < lx)

let test_memory_penalty_only_for_linux () =
  let plat = Iw_hw.Platform.knl in
  check_int "rtk penalty" 0 (Nas.memory_penalty_per_iter plat Runtime.Rtk Nas.bt);
  check_bool "linux penalty positive" true
    (Nas.memory_penalty_per_iter plat Runtime.Linux_user Nas.bt > 0)

let test_nas_speedup_sane () =
  let r = Nas.run (plat 16) Runtime.Rtk ~nthreads:16 Nas.ep in
  check_bool
    (Printf.sprintf "ep speedup %.1f in (10,16]" r.speedup_vs_serial)
    true
    (r.speedup_vs_serial > 10.0 && r.speedup_vs_serial <= 16.2)

let test_epcc_overheads_ordered () =
  let plat = plat 8 in
  let get mode construct =
    (Epcc.measure plat mode ~nthreads:8 construct).overhead_cycles_per_construct
  in
  let lx = get Runtime.Linux_user Epcc.Parallel_region in
  let rtk = get Runtime.Rtk Epcc.Parallel_region in
  check_bool
    (Printf.sprintf "rtk parallel overhead %.0f < linux %.0f" rtk lx)
    true (rtk < lx);
  let dyn = get Runtime.Rtk Epcc.Dynamic_for in
  let sta = get Runtime.Rtk Epcc.Static_for in
  check_bool "dynamic-for costs more than static-for" true (dyn > sta)

let test_epcc_all_modes_including_cck () =
  let plat = plat 4 in
  List.iter
    (fun mode ->
      let r = Epcc.measure plat mode ~nthreads:4 Epcc.Parallel_region in
      check_bool
        (Runtime.mode_name mode ^ " overhead sane")
        true
        (r.overhead_cycles_per_construct > 0.0
        && r.overhead_cycles_per_construct < 1_000_000.0))
    [ Runtime.Linux_user; Runtime.Rtk; Runtime.Pik; Runtime.Cck ]

let test_cg_dynamic_bench_runs () =
  let r = Nas.run (plat 8) Runtime.Rtk ~nthreads:8 Nas.cg in
  check_bool "cg speedup reasonable" true
    (r.speedup_vs_serial > 4.0 && r.speedup_vs_serial <= 8.2)

let test_epcc_table_complete () =
  let rows =
    Epcc.table (plat 4) ~modes:[ Runtime.Linux_user; Runtime.Rtk ] ~nthreads:4
  in
  check_int "4 constructs x 2 modes" 8 (List.length rows)

let test_region_count () =
  let plat = plat 4 in
  let k = Sched.boot ~seed:3 ~personality:(Os.nautilus plat) plat in
  ignore
    (Sched.spawn k (fun () ->
         let t = Runtime.create k Runtime.Rtk ~nthreads:4 in
         for _ = 1 to 5 do
           Runtime.parallel_for t ~iters:100 ~iter_cycles:(fun _ -> 100) ()
         done;
         check_int "regions counted" 5 (Runtime.regions t);
         Runtime.shutdown t));
  Sched.run k

(* The team's polling, worksharing and barrier path allocates nothing
   in steady state; what is left per region is the master's (a
   coroutine) and the per-run set-up, over BT's 40 regions.  A
   coroutine team reads ~14k (RTK) and ~27k (Linux) words per region;
   the flat team ~950 and ~1400. *)
let test_alloc_per_region () =
  List.iter
    (fun (mode, budget) ->
      let before = Gc.minor_words () in
      let r = Nas.run Iw_hw.Platform.knl mode ~nthreads:32 Nas.bt in
      let words = (Gc.minor_words () -. before) /. float_of_int r.regions_run in
      check_bool
        (Printf.sprintf "%s: %.0f minor words/region <= %.0f" (Runtime.mode_name mode) words
           budget)
        true (words <= budget))
    [ (Runtime.Rtk, 2000.0); (Runtime.Linux_user, 3000.0) ]

let () =
  Alcotest.run "omp"
    [
      ( "runtime",
        [
          Alcotest.test_case "parallel beats serial" `Quick
            test_parallel_for_faster_than_serial;
          Alcotest.test_case "all modes run" `Quick test_every_mode_runs;
          Alcotest.test_case "dynamic under imbalance" `Quick
            test_dynamic_beats_static_under_imbalance;
          Alcotest.test_case "guided" `Quick test_guided_completes_and_scales;
          Alcotest.test_case "region count" `Quick test_region_count;
        ] );
      ( "nas",
        [
          Alcotest.test_case "pik ~ rtk" `Quick test_pik_close_to_rtk;
          Alcotest.test_case "rtk beats linux" `Quick test_rtk_beats_linux;
          Alcotest.test_case "memory penalty" `Quick
            test_memory_penalty_only_for_linux;
          Alcotest.test_case "ep speedup sane" `Quick test_nas_speedup_sane;
        ] );
      ( "epcc",
        [
          Alcotest.test_case "overheads ordered" `Quick
            test_epcc_overheads_ordered;
          Alcotest.test_case "table complete" `Quick test_epcc_table_complete;
          Alcotest.test_case "all modes incl cck" `Quick
            test_epcc_all_modes_including_cck;
          Alcotest.test_case "cg dynamic bench" `Quick
            test_cg_dynamic_bench_runs;
          Alcotest.test_case "allocation budget" `Quick test_alloc_per_region;
        ] );
    ]
