(* The benchmark's own tests: its metric catalogue, its failure
   accounting, and its seeding.  Real workloads run at toy sizes. *)

open Simbench

let names specs = List.map (fun (s : Metric.spec) -> s.name) specs
let all = Metric.end_to_end @ Metric.per_layer

let test_catalogue () =
  let ns = names all in
  Alcotest.(check int) "names are unique" (List.length ns) (List.length (List.sort_uniq compare ns));
  List.iter
    (fun (s : Metric.spec) ->
      Alcotest.(check bool) ("well-formed name " ^ s.name) true (Metric.valid_name s.name);
      Alcotest.(check bool) ("well-formed unit of " ^ s.name) true (Metric.valid_unit s.unit))
    all;
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Metric.valid_name bad))
    [ ""; ".p50"; "a b"; "x/y"; String.make 65 'a' ]

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* BENCHMARK.json at the repository root declares the same metrics. *)
let test_benchmark_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  List.iter
    (fun (s : Metric.spec) ->
      let decl =
        Printf.sprintf "{\"name\": %S, \"unit\": %S, \"better\": %S" s.name s.unit
          (Metric.better_name s.better)
      in
      Alcotest.(check bool) ("declared: " ^ s.name) true (contains json decl))
    all

let test_tail () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (pair string (float 0.0))) "p90 of 100" ("p90", 90.0) (Harness.tail xs);
  Alcotest.(check (pair string (float 0.0))) "p92.19 of 128" ("p92.19", 118.0)
    (Harness.tail (List.init 128 (fun i -> float_of_int (128 - i))));
  Alcotest.(check (pair string (float 0.0))) "max of 8" ("max", 8.0)
    (Harness.tail (List.init 8 (fun i -> float_of_int (i + 1))))

(* A toy workload: [outcome v n] is the outcome of the n-th call on
   variant v. *)
let toy outcome =
  let calls = ref 0 in
  {
    Bench.name = "toy";
    op = "op";
    rate_alias = ("toy_per_s", 1.0);
    generate =
      (fun ~seed:_ v _ ->
        incr calls;
        let n = !calls in
        fun () -> outcome v n);
  }

let ok = { Bench.ops = 10; digest = "d"; problems = []; counts = [] }

let test_failed_check () =
  let w =
    toy (fun v _ ->
        if v = 1 then { ok with problems = [ "toy: check violated" ] }
        else if v = 2 then failwith "toy: raised"
        else ok)
  in
  let r = Harness.run ~seed:1 ~seconds:0.05 ~trace:false w in
  Alcotest.(check bool) "not correct" false r.correct;
  Alcotest.(check bool) "some iterations failed" true (r.failed > 0);
  Alcotest.(check bool) "others did not" true (r.failed < r.attempted);
  Alcotest.(check (list string)) "metrics still printed" (names Metric.end_to_end)
    (names (List.map fst r.metrics))

let test_digest_repeat () =
  let w = toy (fun _ n -> { ok with digest = string_of_int n }) in
  let r = Harness.run ~seed:1 ~seconds:0.05 ~trace:false w in
  Alcotest.(check int) "every repeat after the first fails" (r.attempted - Bench.variants) r.failed

let small () =
  [
    Fleet_nic.make ~size:{ Fleet_nic.rps = 50_000.0; duration_us = 2_000.0 } ();
    Coherence_mesi.make ~per_core:50 ();
    Heartbeat_omp.make ~shrink:4000 ();
  ]

let test_seed (w : Bench.t) () =
  let digest seed = (w.generate ~seed 0 Span.null ()).digest in
  Alcotest.(check bool) "another seed, other inputs" true (digest 1 <> digest 2);
  List.iter
    (fun trace ->
      let metrics seed =
        let r = Harness.run ~seed ~seconds:0.0 ~trace w in
        Alcotest.(check int) "no failed iteration" 0 r.failed;
        names (List.map fst r.metrics)
      in
      let expected = names (if trace then Metric.per_layer else Metric.end_to_end) in
      Alcotest.(check (list string)) "seed 1 metrics" expected (metrics 1);
      Alcotest.(check (list string)) "seed 2 metrics" expected (metrics 2))
    [ false; true ]

let () =
  Alcotest.run "simbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "catalogue names and units" `Quick test_catalogue;
          Alcotest.test_case "BENCHMARK.json declares the catalogue" `Quick test_benchmark_json;
          Alcotest.test_case "tail percentile keeps ten beyond" `Quick test_tail;
        ] );
      ( "checks",
        [
          Alcotest.test_case "violated check is a failed iteration" `Quick test_failed_check;
          Alcotest.test_case "changed same-seed digest fails" `Quick test_digest_repeat;
        ] );
      ( "seeds",
        List.map
          (fun (w : Bench.t) -> Alcotest.test_case (w.name ^ ": seed moves inputs, not metrics") `Quick (test_seed w))
          (small ()) );
    ]
