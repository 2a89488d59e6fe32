(* Tests for the cache, the MESI+directory protocol, selective
   deactivation, and the PBBS trace study. *)

open Iw_coherence

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let params = Machine.default_params ~cores:4 ~cores_per_socket:2

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_miss_then_hit () =
  let c = Cache.create ~size_kb:4 ~ways:2 ~line_bytes:64 in
  check_bool "cold miss" true (Cache.lookup c 0x1000 = Cache.Invalid);
  ignore (Cache.install c 0x1000 Cache.Exclusive);
  check_bool "hit" true (Cache.lookup c 0x1000 = Cache.Exclusive);
  (* Same line, different byte. *)
  check_bool "same line hit" true (Cache.lookup c 0x103f = Cache.Exclusive);
  check_bool "next line miss" true (Cache.lookup c 0x1040 = Cache.Invalid)

let test_cache_lru_eviction () =
  (* 2 ways per set: the third distinct line mapping to one set evicts
     the least recently used. *)
  let c = Cache.create ~size_kb:4 ~ways:2 ~line_bytes:64 in
  let sets = 4 * 1024 / 64 / 2 in
  let stride = sets * 64 in
  let a = 0 and b = stride and d = 2 * stride in
  ignore (Cache.install c a Cache.Exclusive);
  ignore (Cache.install c b Cache.Exclusive);
  ignore (Cache.lookup c a);
  (* a is now MRU; installing d evicts b *)
  let evicted = Cache.install c d Cache.Exclusive in
  check_bool "an eviction" true (evicted >= 0);
  check_int "b evicted" (b / 64) (Cache.evicted_line evicted);
  check_bool "clean victim" true (Cache.evicted_state evicted = Cache.Exclusive);
  check_bool "a survives" true (Cache.resident c a);
  check_bool "b gone" true (not (Cache.resident c b))

let test_cache_invalidate () =
  let c = Cache.create ~size_kb:4 ~ways:2 ~line_bytes:64 in
  ignore (Cache.install c 0x40 Cache.Modified);
  Cache.invalidate c 0x40;
  check_bool "gone" true (Cache.lookup c 0x40 = Cache.Invalid)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_read_then_hit_costs () =
  let m = Machine.create ~params Machine.Off in
  Machine.access m ~core:0 ~addr:0x1000 ~write:false ~hint:Machine.Shared_data;
  let after_miss = Machine.core_cycles m 0 in
  Machine.access m ~core:0 ~addr:0x1000 ~write:false ~hint:Machine.Shared_data;
  let after_hit = Machine.core_cycles m 0 in
  check_bool "miss costs more than hit" true
    (after_miss > 10 * (after_hit - after_miss));
  check_int "hit costs l1_hit" params.l1_hit (after_hit - after_miss)

let test_write_invalidates_sharers () =
  let m = Machine.create ~params Machine.Off in
  let addr = 0x2000 in
  (* Two readers share the line. *)
  Machine.access m ~core:0 ~addr ~write:false ~hint:Machine.Shared_data;
  Machine.access m ~core:1 ~addr ~write:false ~hint:Machine.Shared_data;
  let before = (Machine.counters m).invalidations in
  (* A third core writes: both sharers must be invalidated. *)
  Machine.access m ~core:2 ~addr ~write:true ~hint:Machine.Shared_data;
  let after = (Machine.counters m).invalidations in
  check_bool "invalidations sent" true (after - before >= 2);
  (* Reader 0 now misses again. *)
  let c0_before = (Machine.counters m).misses in
  Machine.access m ~core:0 ~addr ~write:false ~hint:Machine.Shared_data;
  check_int "re-miss after invalidation" (c0_before + 1)
    (Machine.counters m).misses

let test_modified_data_forwarded () =
  let m = Machine.create ~params Machine.Off in
  let addr = 0x3000 in
  Machine.access m ~core:0 ~addr ~write:true ~hint:Machine.Shared_data;
  let wb_before = (Machine.counters m).writebacks in
  (* Another core reads: the dirty owner must supply + write back. *)
  Machine.access m ~core:1 ~addr ~write:false ~hint:Machine.Shared_data;
  check_int "writeback of modified data" (wb_before + 1)
    (Machine.counters m).writebacks

let test_private_hint_skips_directory () =
  let m = Machine.create ~params Machine.Private_only in
  let before = (Machine.counters m).dir_requests in
  for i = 0 to 63 do
    Machine.access m ~core:0 ~addr:(0x4000 + (i * 64)) ~write:true
      ~hint:(Machine.Private_to 0)
  done;
  check_int "no directory traffic" before (Machine.counters m).dir_requests;
  check_int "no invalidations" 0 (Machine.counters m).invalidations

let test_private_hint_not_honored_when_off () =
  let m = Machine.create ~params Machine.Off in
  Machine.access m ~core:0 ~addr:0x4000 ~write:true ~hint:(Machine.Private_to 0);
  check_bool "still tracked" true ((Machine.counters m).dir_requests > 0)

let test_ro_write_rejected () =
  let m = Machine.create ~params Machine.Private_and_ro in
  check_bool "raises" true
    (try
       Machine.access m ~core:0 ~addr:0x5000 ~write:true ~hint:Machine.Read_only;
       false
     with Invalid_argument _ -> true)

let test_ping_pong_costs () =
  (* Two cores alternately writing one line: the classic coherence
     pathology the paper calls out.  Tracked MESI pays transfers every
     time; each write is far more expensive than a private write. *)
  let m = Machine.create ~params Machine.Off in
  let addr = 0x6000 in
  for _ = 1 to 20 do
    Machine.access m ~core:0 ~addr ~write:true ~hint:Machine.Shared_data;
    Machine.access m ~core:3 ~addr ~write:true ~hint:Machine.Shared_data
  done;
  let shared_cost = Machine.core_cycles m 0 + Machine.core_cycles m 3 in
  let m2 = Machine.create ~params Machine.Private_and_ro in
  for _ = 1 to 20 do
    Machine.access m2 ~core:0 ~addr:0x7000 ~write:true ~hint:(Machine.Private_to 0);
    Machine.access m2 ~core:3 ~addr:0x8000 ~write:true ~hint:(Machine.Private_to 3)
  done;
  let private_cost = Machine.core_cycles m2 0 + Machine.core_cycles m2 3 in
  check_bool
    (Printf.sprintf "ping-pong %d >> private %d" shared_cost private_cost)
    true
    (shared_cost > 5 * private_cost)

let test_energy_only_on_interconnect () =
  let m = Machine.create ~params Machine.Private_and_ro in
  (* Local private hits and local fetches cross no interconnect. *)
  for i = 0 to 31 do
    Machine.access m ~core:0 ~addr:(0x9000 + (i * 64)) ~write:false
      ~hint:(Machine.Private_to 0)
  done;
  Alcotest.(check (float 1e-9)) "zero energy" 0.0 (Machine.interconnect_energy m)

(* ------------------------------------------------------------------ *)
(* Invariants *)

let test_swmr_after_trace () =
  List.iter
    (fun deact ->
      let bench = { Traces.bfs with Traces.accesses_per_core = 2_000 } in
      let m = Traces.run_bench ~params deact bench in
      check_bool "swmr holds" true (Machine.swmr_holds m))
    [ Machine.Off; Machine.Private_and_ro ]

let prop_swmr_random_accesses =
  QCheck.Test.make ~name:"SWMR holds under random tracked accesses" ~count:40
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, extra) ->
      let m = Machine.create ~params Machine.Off in
      let rng = Iw_engine.Rng.create ~seed:(seed + extra) in
      for _ = 1 to 400 do
        let core = Iw_engine.Rng.int rng params.Machine.cores in
        let addr = 0x1000 + (64 * Iw_engine.Rng.int rng 32) in
        let write = Iw_engine.Rng.bool rng in
        Machine.access m ~core ~addr ~write ~hint:Machine.Shared_data
      done;
      Machine.swmr_holds m)

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_create_core_limit () =
  (* 62 cores fill the one-int sharer mask; core 61 uses its top bit. *)
  let p62 = Machine.default_params ~cores:62 ~cores_per_socket:31 in
  let m = Machine.create ~params:{ p62 with Machine.cache_kb = 4 } Machine.Off in
  let addr = 0x2000 in
  Machine.access m ~core:0 ~addr ~write:false ~hint:Machine.Shared_data;
  Machine.access m ~core:61 ~addr ~write:false ~hint:Machine.Shared_data;
  Machine.access m ~core:1 ~addr ~write:true ~hint:Machine.Shared_data;
  check_int "both readers invalidated" 2 (Machine.counters m).invalidations;
  check_bool "swmr holds" true (Machine.swmr_holds m);
  match
    Machine.create ~params:(Machine.default_params ~cores:63 ~cores_per_socket:32)
      Machine.Off
  with
  | _ -> Alcotest.fail "63 cores accepted"
  | exception Invalid_argument _ -> ()

(* The tracked and deactivated paths allocate nothing per access: a
   fixed PBBS stream on the E6 machine (24 cores), generated up front
   so only Machine.access is measured. *)
let test_alloc_budget () =
  let params = Machine.default_params ~cores:24 ~cores_per_socket:12 in
  let cores = params.Machine.cores in
  let stream =
    Array.concat
      (List.map
         (fun (b : Traces.bench) ->
           let rngs = Array.init cores (fun c -> Iw_engine.Rng.create ~seed:(17 + c)) in
           Array.init (cores * 500) (fun i ->
               let core = i mod cores in
               (core, Traces.gen_access b.Traces.mix rngs.(core) ~core)))
         Traces.pbbs_suite)
  in
  List.iter
    (fun deact ->
      let m = Machine.create ~params deact in
      let before = Gc.minor_words () in
      Array.iter
        (fun (core, (addr, write, hint)) -> Machine.access m ~core ~addr ~write ~hint)
        stream;
      let words = (Gc.minor_words () -. before) /. float_of_int (Array.length stream) in
      check_bool (Printf.sprintf "%.3f minor words/access <= 0.5" words) true (words <= 0.5))
    [ Machine.Off; Machine.Private_and_ro ]

(* Random accesses on up to 8 cores with 4 KB caches (so lines are
   evicted), all three hints (each address keeps one hint; private data
   is touched only by its owner), under every deactivation mode and a
   fault plan arming the protocol's three fault kinds. *)
let random_run ~cores ~deact ~seed =
  let p = Machine.default_params ~cores ~cores_per_socket:(max 1 (cores / 2)) in
  let params = { p with Machine.cache_kb = 4; ways = 4 } in
  let plan =
    Iw_faults.Plan.create
      ~kinds:Iw_faults.Plan.[ Tlb_shootdown; Dir_stale; Dir_drop_ack ]
      ~rate:0.05 ~seed ()
  in
  let rng = Iw_engine.Rng.create ~seed in
  let m = Machine.create ~params deact in
  Iw_faults.Plan.with_ambient plan (fun () ->
      for _ = 1 to 1_500 do
        let core = Iw_engine.Rng.int rng cores in
        let line, write, hint =
          match Iw_engine.Rng.int rng 3 with
          | 0 -> (Iw_engine.Rng.int rng 24, Iw_engine.Rng.bool rng, Machine.Shared_data)
          | 1 -> (1024 + Iw_engine.Rng.int rng 64, false, Machine.Read_only)
          | _ ->
              ( (4096 * (core + 1)) + Iw_engine.Rng.int rng 160,
                Iw_engine.Rng.bool rng,
                Machine.Private_to core )
        in
        Machine.access m ~core ~addr:(line * 64) ~write ~hint
      done);
  (m, Iw_faults.Plan.injected plan)

let prop_directory_random =
  QCheck.Test.make ~name:"directory: SWMR, hits + misses, same seed same run"
    ~count:60
    QCheck.(triple (int_range 1 8) (int_bound 2) (int_bound 100_000))
    (fun (cores, d, seed) ->
      let deact = [| Machine.Off; Machine.Private_only; Machine.Private_and_ro |].(d) in
      let a, injected = random_run ~cores ~deact ~seed in
      let b, _ = random_run ~cores ~deact ~seed in
      let c = Machine.counters a in
      injected > 0
      && Machine.swmr_holds a
      && c.Machine.accesses = 1_500
      && c.accesses = c.hits + c.misses
      && c = Machine.counters b
      && Machine.interconnect_energy a = Machine.interconnect_energy b
      && List.for_all
           (fun core -> Machine.core_cycles a core = Machine.core_cycles b core)
           (List.init cores Fun.id))

(* ------------------------------------------------------------------ *)
(* Consistency (SecV-B fences) *)

let test_tso_equals_selective_without_unrelated () =
  let run m =
    Consistency.producer_consumer ~iterations:100 ~data_stores:4
      ~unrelated_stores:0 m
  in
  check_int "identical when nothing is unrelated"
    (run Consistency.Tso).total_cycles
    (run Consistency.Selective).total_cycles

let test_selective_beats_tso_with_unrelated () =
  let sp =
    Consistency.speedup ~iterations:500 ~data_stores:2 ~unrelated_stores:32 ()
  in
  check_bool (Printf.sprintf "speedup %.2f > 1.1" sp) true (sp > 1.1)

let test_selective_fence_stalls_zero_when_data_drained () =
  let r =
    Consistency.producer_consumer ~iterations:200 ~data_stores:2
      ~unrelated_stores:16 Consistency.Selective
  in
  check_int "no stalls on drained data" 0 r.fence_stalls

let test_more_unrelated_more_tso_stall () =
  let stall u =
    (Consistency.producer_consumer ~iterations:100 ~data_stores:2
       ~unrelated_stores:u Consistency.Tso)
      .fence_stalls
  in
  check_bool "monotone in unrelated stores" true (stall 32 > stall 8)

(* ------------------------------------------------------------------ *)
(* MPL-style language runtime (SecV-G) *)

let mpl_machine () =
  Machine.create ~params:(Machine.default_params ~cores:8 ~cores_per_socket:4)
    Machine.Private_and_ro

let test_mpl_par_for_computes () =
  let m = mpl_machine () in
  let total, stats =
    Mpl.run ~machine:m (fun ctx ->
        let acc = Mpl.alloc ctx 8 ~init:0 in
        Mpl.par_for ctx ~lo:0 ~hi:8 ~grain:1 (fun c b ->
            let scratch = Mpl.alloc c 16 ~init:b in
            let s = ref 0 in
            for i = 0 to 15 do
              s := !s + Mpl.read c scratch i
            done;
            Mpl.write c acc b !s);
        let t = ref 0 in
        for b = 0 to 7 do
          t := !t + Mpl.read ctx acc b
        done;
        !t)
  in
  (* sum over b of 16*b = 16*28 *)
  check_int "computed" (16 * 28) total;
  check_bool "accesses recorded" true (stats.Mpl.accesses > 100)

let test_mpl_private_classification () =
  let m = mpl_machine () in
  let (), stats =
    Mpl.run ~machine:m (fun ctx ->
        Mpl.par_for ctx ~lo:0 ~hi:8 ~grain:1 (fun c _ ->
            let scratch = Mpl.alloc c 64 ~init:0 in
            for i = 0 to 63 do
              Mpl.write c scratch i i
            done))
  in
  (* Every access is to task-local fresh data. *)
  check_int "all private" stats.Mpl.accesses stats.Mpl.classified_private;
  check_int "no entanglement" 0 stats.Mpl.entanglements

let test_mpl_frozen_is_ro () =
  let m = mpl_machine () in
  let (), stats =
    Mpl.run ~machine:m (fun ctx ->
        let input = Mpl.alloc ctx 32 ~init:7 in
        Mpl.freeze ctx input;
        Mpl.par_for ctx ~lo:0 ~hi:4 ~grain:1 (fun c _ ->
            for i = 0 to 31 do
              ignore (Mpl.read c input i)
            done))
  in
  check_bool "ro classified" true (stats.Mpl.classified_ro >= 4 * 32)

let test_mpl_write_frozen_rejected () =
  let m = mpl_machine () in
  check_bool "raises" true
    (try
       ignore
         (Mpl.run ~machine:m (fun ctx ->
              let o = Mpl.alloc ctx 4 ~init:0 in
              Mpl.freeze ctx o;
              Mpl.write ctx o 0 1));
       false
     with Invalid_argument _ -> true)

let test_mpl_ancestor_data_shared () =
  let m = mpl_machine () in
  let (), stats =
    Mpl.run ~machine:m (fun ctx ->
        let shared = Mpl.alloc ctx 8 ~init:0 in
        let (), () =
          Mpl.par2 ctx
            (fun c -> Mpl.write c shared 0 1)
            (fun c -> Mpl.write c shared 1 2)
        in
        ())
  in
  check_bool "children's writes to parent data are shared" true
    (stats.Mpl.classified_shared >= 2)

let test_mpl_join_transfers_ownership () =
  let m = mpl_machine () in
  let (), stats =
    Mpl.run ~machine:m (fun ctx ->
        let (o, ()) =
          Mpl.par2 ctx (fun c -> Mpl.alloc c 8 ~init:3) (fun _ -> ())
        in
        (* After the join, the child's object belongs to the parent:
           these accesses are private again. *)
        let before = ref 0 in
        ignore before;
        for i = 0 to 7 do
          ignore (Mpl.read ctx o i)
        done)
  in
  check_int "no entanglement via join" 0 stats.Mpl.entanglements

let test_mpl_hints_speed_up_protocol () =
  let prog ctx =
    let input = Mpl.alloc ctx 4_096 ~init:1 in
    Mpl.freeze ctx input;
    Mpl.par_for ctx ~lo:0 ~hi:8 ~grain:1 (fun c b ->
        let scratch = Mpl.alloc c 512 ~init:0 in
        for i = 0 to 511 do
          Mpl.write c scratch i (Mpl.read c input ((b * 512) + i))
        done)
  in
  let mk deact =
    Machine.create
      ~params:(Machine.default_params ~cores:8 ~cores_per_socket:4)
      deact
  in
  let base = mk Machine.Off in
  ignore (Mpl.run ~machine:base prog);
  let deact = mk Machine.Private_and_ro in
  ignore (Mpl.run ~machine:deact prog);
  check_bool "derived hints speed up the machine" true
    (Machine.makespan deact * 10 < Machine.makespan base * 9)

(* ------------------------------------------------------------------ *)
(* Traces / Fig 7 *)

let small_bench =
  { Traces.samplesort with Traces.accesses_per_core = 3_000 }

let test_traces_deterministic () =
  let a = Traces.run_bench ~seed:5 ~params Machine.Off small_bench in
  let b = Traces.run_bench ~seed:5 ~params Machine.Off small_bench in
  check_int "same makespan" (Machine.makespan a) (Machine.makespan b)

let test_deactivation_helps_every_bench () =
  List.iter
    (fun (bench : Traces.bench) ->
      let bench = { bench with Traces.accesses_per_core = 2_000 } in
      let base = Traces.run_bench ~params Machine.Off bench in
      let deact = Traces.run_bench ~params Machine.Private_and_ro bench in
      check_bool
        (bench.Traces.bench_name ^ " faster")
        true
        (Machine.makespan deact < Machine.makespan base);
      check_bool
        (bench.Traces.bench_name ^ " less energy")
        true
        (Machine.interconnect_energy deact < Machine.interconnect_energy base))
    Traces.pbbs_suite

let test_fig7_shape () =
  let params = Machine.default_params ~cores:8 ~cores_per_socket:4 in
  let rows =
    Traces.fig7 ~params ()
  in
  check_int "eight benches" 8 (List.length rows);
  let avg = Traces.average_speedup rows in
  check_bool
    (Printf.sprintf "average speedup %.2f in (1.2, 2.0)" avg)
    true
    (avg > 1.2 && avg < 2.0);
  let er = Traces.average_energy_reduction rows in
  check_bool
    (Printf.sprintf "energy reduction %.0f%% in (30, 85)" er)
    true
    (er > 30.0 && er < 85.0)

let test_hierarchy_private_ro_levels () =
  let bench = { Traces.bfs with Traces.accesses_per_core = 2_000 } in
  let t d = Machine.makespan (Traces.run_bench ~params d bench) in
  let off = t Machine.Off in
  let po = t Machine.Private_only in
  let pro = t Machine.Private_and_ro in
  check_bool "private-only already helps" true (po < off);
  check_bool "adding read-only helps more" true (pro <= po)

let () =
  Alcotest.run "coherence"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "miss/hit costs" `Quick test_read_then_hit_costs;
          Alcotest.test_case "write invalidates sharers" `Quick
            test_write_invalidates_sharers;
          Alcotest.test_case "modified forwarded" `Quick
            test_modified_data_forwarded;
          Alcotest.test_case "private skips directory" `Quick
            test_private_hint_skips_directory;
          Alcotest.test_case "hints ignored when off" `Quick
            test_private_hint_not_honored_when_off;
          Alcotest.test_case "ro write rejected" `Quick test_ro_write_rejected;
          Alcotest.test_case "ping-pong pathology" `Quick test_ping_pong_costs;
          Alcotest.test_case "local = zero energy" `Quick
            test_energy_only_on_interconnect;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "swmr after traces" `Quick test_swmr_after_trace;
          QCheck_alcotest.to_alcotest prop_swmr_random_accesses;
        ] );
      ( "directory",
        [
          Alcotest.test_case "62-core limit" `Quick test_create_core_limit;
          Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
          QCheck_alcotest.to_alcotest prop_directory_random;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "tso=selective w/o unrelated" `Quick
            test_tso_equals_selective_without_unrelated;
          Alcotest.test_case "selective wins" `Quick
            test_selective_beats_tso_with_unrelated;
          Alcotest.test_case "zero stall when drained" `Quick
            test_selective_fence_stalls_zero_when_data_drained;
          Alcotest.test_case "monotone stalls" `Quick
            test_more_unrelated_more_tso_stall;
        ] );
      ( "mpl",
        [
          Alcotest.test_case "par_for computes" `Quick
            test_mpl_par_for_computes;
          Alcotest.test_case "private classification" `Quick
            test_mpl_private_classification;
          Alcotest.test_case "frozen is ro" `Quick test_mpl_frozen_is_ro;
          Alcotest.test_case "write frozen rejected" `Quick
            test_mpl_write_frozen_rejected;
          Alcotest.test_case "ancestor data shared" `Quick
            test_mpl_ancestor_data_shared;
          Alcotest.test_case "join transfers ownership" `Quick
            test_mpl_join_transfers_ownership;
          Alcotest.test_case "hints speed up protocol" `Quick
            test_mpl_hints_speed_up_protocol;
        ] );
      ( "fig7",
        [
          Alcotest.test_case "deterministic" `Quick test_traces_deterministic;
          Alcotest.test_case "deactivation helps all" `Slow
            test_deactivation_helps_every_bench;
          Alcotest.test_case "figure shape" `Slow test_fig7_shape;
          Alcotest.test_case "hint levels" `Quick test_hierarchy_private_ro_levels;
        ] );
    ]
