(* The measurement loop shared by every workload.

   A run sets up [setups] times (generate every input variant, then one
   warm-up iteration) and keeps the last set-up; then it iterates for
   [seconds], iteration i replaying variant i mod {!Bench.variants}.
   Each iteration's outputs are checked; a failed check or an
   exception counts the iteration as failed and the run goes on.

   The untraced run (trace = false) gives the end-to-end metrics.  The
   traced run alternates untraced and traced iterations over the same
   variants: the traced ones record spans around each call into a
   layer and collect GC pauses, and the pair gives the tracing
   overhead.  Simulated results are digested; every repeat of a
   variant must reproduce its digest, and with the default seed the
   digest must equal the one recorded in {!Golden}. *)

let default_seed = 42
let setups = 5

type iteration = {
  dt : float;  (** host seconds of the timed call sequence *)
  ops : int;
  minor_words : float;  (** all domains *)
  minor_gcs : int;
  major_gcs : int;
  traced : bool;
  counts : (string * float) list;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Metric.spec * float) list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile that leaves at least ten samples above it:
   the eleventh-largest sample, which is percentile 100 (n - 10) / n by
   nearest rank; with ten or fewer samples, the maximum.  The rank
   moves smoothly with the sample count, so runs that fit a few more
   or fewer iterations into their time read nearby percentiles rather
   than jumping between standard ones.  Returns the label and the
   value. *)
let tail xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then ("max", 0.0)
  else if n <= 10 then ("max", a.(n - 1))
  else (Printf.sprintf "p%.4g" (100.0 *. float_of_int (n - 10) /. float_of_int n), a.(n - 11))

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Work over time for the whole run, not a median of per-iteration
   rates, which would flip between the host's slow and fast phases. *)
let ops_per_s its = ratio (sum (fun it -> float_of_int it.ops) its) (sum (fun it -> it.dt) its)

let lookup name values =
  match List.assoc_opt name values with
  | Some v -> v
  | None -> invalid_arg ("simbench: no value for metric " ^ name)

let select specs values = List.map (fun s -> (s, lookup s.Metric.name values)) specs

(* Per-layer metrics from the traced iterations, their spans, and the
   per-variant counts (deterministic, so any repeat of a variant has
   the same).  [count] averages over variants; ratios of host time to
   work use sums over exactly the traced iterations. *)
let per_layer ~spans ~traced ~untraced ~first_counts ~gen_s ~gc =
  let n = float_of_int (max 1 (List.length traced)) in
  let count name =
    ratio
      (Hashtbl.fold (fun _ cs acc -> acc +. Option.value ~default:0.0 (List.assoc_opt name cs)) first_counts 0.0)
      (float_of_int (Hashtbl.length first_counts))
  in
  let csum name = sum (fun it -> Option.value ~default:0.0 (List.assoc_opt name it.counts)) traced in
  let selfs = Span.self_times spans in
  let iter_ids = List.filter_map (fun (s, _) -> if s.Span.name = "bench.iter" then Some s.id else None) selfs in
  (* Self time of a layer's spans directly inside traced iterations;
     the default-mode fleet re-run sits under the check, not the
     iteration. *)
  let host layer =
    sum
      (fun (s, self) -> if List.mem s.Span.parent iter_ids && Span.layer s.name = layer then self else 0.0)
      selfs
  in
  let span_total name = sum (fun (s, _) -> if s.Span.name = name then s.stop -. s.start else 0.0) selfs in
  let per_iter x = x /. n in
  let ns_per layer name = ratio (host layer *. 1e9) (csum name) in
  let p50 its = median (List.map (fun it -> it.dt) its) in
  [
    ("coherence.host_s", per_iter (host "coherence"));
    ("coherence.ns_per_access", ns_per "coherence" "coherence.accesses");
    ("coherence.hit_ratio", ratio (count "coherence.hits") (count "coherence.accesses"));
    ("coherence.dir_per_access", ratio (count "coherence.dir_requests") (count "coherence.accesses"));
    ("coherence.invalidations", count "coherence.invalidations");
    ( "coherence.minor_words_per_access",
      ratio (sum (fun it -> it.minor_words) traced) (csum "coherence.accesses") );
    ("fleet.host_s", per_iter (host "fleet"));
    ("fleet.ns_per_window", ns_per "fleet" "fleet.windows");
    ("fleet.parallel_over_serial", ratio (span_total "fleet.run") (span_total "fleet.run_serial"));
    ( "engine.ns_per_timer_fire",
      ratio ((host "fleet" +. host "heartbeat" +. host "omp") *. 1e9) (csum "engine.timer_fires") );
    ("heartbeat.host_s", per_iter (host "heartbeat"));
    ("heartbeat.ns_per_promotion", ns_per "heartbeat" "heartbeat.promotions");
    ("omp.host_s", per_iter (host "omp"));
    ("omp.ns_per_chunk", ns_per "omp" "omp.chunks");
    ("gc.minor_collections", per_iter (sum (fun it -> float_of_int it.minor_gcs) traced));
    ("gc.major_collections", per_iter (sum (fun it -> float_of_int it.major_gcs) traced));
    ("gc.pause_ms", per_iter (Gc_pause.pause_ms gc));
    ("bench.gen_s", gen_s);
    ("trace.overhead_frac", ratio (p50 traced) (p50 untraced) -. 1.0);
    ("iter_s.p50", p50 untraced);
    ("sim_ops_per_s", ops_per_s untraced);
  ]
  (* Every other per-layer metric is a count the workload reports. *)
  @ List.map
      (fun (s : Metric.spec) -> (s.name, count s.name))
      Metric.per_layer

let run ?out_dir ~seed ~seconds ~trace (w : Bench.t) =
  let gc = if trace then Some (Gc_pause.start ()) else None in
  let spans = if trace then Span.create () else Span.null in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let first_digest = Hashtbl.create 8 and first_counts = Hashtbl.create 8 in
  let digest_problems v d =
    (match Hashtbl.find_opt first_digest v with
    | None ->
        Hashtbl.add first_digest v d;
        []
    | Some d0 when d0 = d -> []
    | Some _ -> [ Printf.sprintf "%s variant %d: digest changed between same-seed repeats" w.name v ])
    @
    match Golden.find w.name v with
    | Some g when seed = default_seed && g <> d ->
        [ Printf.sprintf "%s variant %d: digest %s, recorded %s" w.name v d g ]
    | _ -> []
  in
  (* One iteration: the timed call sequence, then its checks.  [around]
     wraps only the timed part. *)
  let iterate ?(around = fun f -> f ()) runner v sp =
    incr attempted;
    let q0 = Gc.quick_stat () in
    let t0 = Span.now () in
    let called = try Ok (around (fun () -> Span.with_ sp "bench.iter" (fun () -> runner v sp))) with e -> Error e in
    let dt = Span.now () -. t0 in
    let q1 = Gc.quick_stat () in
    let outcome =
      match called with
      | Error e -> Error (Printexc.to_string e)
      | Ok check -> ( try Ok (Span.with_ sp "bench.check" check) with e -> Error (Printexc.to_string e))
    in
    let bad =
      match outcome with
      | Error msg -> [ Printf.sprintf "%s variant %d raised %s" w.name v msg ]
      | Ok o -> o.Bench.problems @ digest_problems v o.digest
    in
    if bad <> [] then begin
      incr failed;
      problems := List.rev_append bad !problems
    end;
    match outcome with
    | Error _ -> None
    | Ok o ->
        if not (Hashtbl.mem first_counts v) then Hashtbl.add first_counts v o.counts;
        Some
          {
            dt;
            ops = o.ops;
            minor_words = q1.minor_words -. q0.minor_words;
            minor_gcs = q1.minor_collections - q0.minor_collections;
            major_gcs = q1.major_collections - q0.major_collections;
            traced = Span.enabled sp;
            counts = o.counts;
          }
  in
  (* Each set-up starts from a collected heap, so the previous one's
     inputs neither linger nor get collected on this one's clock. *)
  let set_up () =
    Gc.full_major ();
    let t0 = Span.now () in
    let runner = Span.with_ spans "bench.gen" (fun () -> w.generate ~seed) in
    let gen_s = Span.now () -. t0 in
    ignore (iterate runner 0 Span.null);
    (runner, gen_s, Span.now () -. t0)
  in
  let runner = ref None and gen_times = ref [] and setup_times = ref [] in
  for _ = 1 to setups do
    runner := None;
    let r, g, s = set_up () in
    runner := Some r;
    gen_times := g :: !gen_times;
    setup_times := s :: !setup_times
  done;
  let runner = Option.get !runner in
  let setup_s = median !setup_times and gen_s = median !gen_times in
  let its = ref [] in
  let traced_count = ref 0 in
  let t_start = Span.now () in
  let i = ref 0 in
  while Span.now () -. t_start < seconds || (trace && !traced_count < Bench.variants) do
    (* The traced run pairs an untraced and a traced iteration of
       each variant. *)
    let v = (if trace then !i / 2 else !i) mod Bench.variants in
    let it =
      match gc with
      | Some g when !i mod 2 = 1 ->
          incr traced_count;
          iterate ~around:(Gc_pause.around g) runner v spans
      | _ -> iterate runner v Span.null
    in
    Option.iter (fun it -> its := it :: !its) it;
    incr i
  done;
  let wall = Span.now () -. t_start in
  let its = List.rev !its in
  let untraced = List.filter (fun it -> not it.traced) its in
  let traced = List.filter (fun it -> it.traced) its in
  let times = List.map (fun it -> it.dt) untraced in
  let tail_label, tail_v = tail times in
  let ops_per_s = ops_per_s untraced in
  let alias, scale = w.rate_alias in
  let q = Gc.quick_stat () in
  let values =
    [
      ("setup_s", setup_s);
      ("iter_s.p50", median times);
      ("iter_s.tail", tail_v);
      ("sim_ops_per_s", ops_per_s);
      ("minor_words_per_op", ratio (sum (fun it -> it.minor_words) untraced) (sum (fun it -> float_of_int it.ops) untraced));
      ("top_heap_mb", float_of_int (q.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    ]
  in
  let metrics, printed =
    match gc with
    | None -> (select Metric.end_to_end values, select (Metric.end_to_end @ Metric.unbounded) values)
    | Some gc ->
        let m = select Metric.per_layer (per_layer ~spans ~traced ~untraced ~first_counts ~gen_s ~gc) in
        (m, m)
  in
  (match (out_dir, trace) with
  | Some dir, true ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Span.write_chrome spans (Filename.concat dir (Printf.sprintf "simbench-%s-seed%d.trace.json" w.name seed))
  | _ -> ());
  let sim_p99 =
    Hashtbl.fold (fun _ cs acc -> Option.value ~default:0.0 (List.assoc_opt "service.e2e_p99_us" cs) :: acc) first_counts []
  in
  let notes =
    [
      Printf.sprintf "simbench %s, seed %d, trace %d: %d iterations in %.1f s (%d traced), %d input variants, %d failed"
        w.name seed (Bool.to_int trace) !attempted wall (List.length traced) Bench.variants !failed;
      Printf.sprintf "  setup_s: median of %d set-ups (input generation %.4f s + one warm-up iteration)" setups gen_s;
      Printf.sprintf "  iter_s.tail: %s of %d untraced iterations" tail_label (List.length times);
      Printf.sprintf "  %s = sim_ops_per_s x %g = %.6g (op = one %s)" alias scale (ops_per_s *. scale) w.op;
      Printf.sprintf "  failed_frac = %d/%d = %g" !failed !attempted (ratio (float_of_int !failed) (float_of_int !attempted));
    ]
    @ (if sim_p99 = [] || List.for_all (( = ) 0.0) sim_p99 then []
       else [ Printf.sprintf "  sim_p99_us = %.6g sim_us (median over variants of fr_total p99)" (median sim_p99) ])
    @ (match gc with
      | Some g when Gc_pause.lost_events g > 0 ->
          [ Printf.sprintf "  gc.pause_ms: %d runtime events lost (ring overflow)" (Gc_pause.lost_events g) ]
      | _ -> [])
    @ List.map (fun p -> "  check failed: " ^ p) (List.filteri (fun i _ -> i < 10) (List.rev !problems))
    @ List.map (fun ((s : Metric.spec), v) -> Printf.sprintf "  %-36s %14.6g %s" s.name v s.unit) printed
  in
  { correct = !failed = 0; attempted = !attempted; failed = !failed; metrics; notes }
