(* simbench: the simulator benchmark.  Usage:

     simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     simbench --digests

   prints a human-readable report and, as its last line, one JSON
   result object; a traced run also writes its spans under .bench_out.
   --digests prints the default-seed digests of every
   workload's input variants as OCaml, for golden.ml. *)

open Simbench

let workloads () = [ Fleet_nic.make (); Coherence_mesi.make (); Heartbeat_omp.make () ]

let usage () =
  prerr_endline
    "usage: simbench --workload (fleet-nic|coherence-mesi|heartbeat-omp) [--seed N] \
     [--seconds S] [--trace 0|1]\n       simbench --digests";
  exit 2

let digests () =
  print_endline "let recorded =\n  [";
  List.iter
    (fun (w : Bench.t) ->
      let runner = w.generate ~seed:Harness.default_seed in
      for v = 0 to Bench.variants - 1 do
        let o = runner v Span.null () in
        Printf.printf "    ((%S, %d), %S);\n%!" w.name v o.digest
      done)
    (workloads ());
  print_endline "  ]"

let () =
  let workload = ref None and seed = ref Harness.default_seed and seconds = ref 20.0 in
  let trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--digests" :: _ ->
        digests ();
        exit 0
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s >= 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match !workload with
    | None -> usage ()
    | Some name -> (
        match List.find_opt (fun (w : Bench.t) -> w.name = name) (workloads ()) with
        | Some w -> w
        | None -> usage ())
  in
  let r = Harness.run ~out_dir:".bench_out" ~seed:!seed ~seconds:!seconds ~trace:!trace w in
  List.iter print_endline r.notes;
  print_endline (Metric.result_json ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.metrics)
