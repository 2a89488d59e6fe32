(* The metric catalogue: one source of truth for every name the
   benchmark prints, its unit, and which direction is better.
   BENCHMARK.json at the repository root lists the same names; the
   benchmark's tests hold the two together. *)

type better = Lower | Higher

type spec = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* In the result of a run with --trace 0, on every workload, each
   with a regression bound in BENCHMARK.json.  Each is nonzero on
   every workload: an "op" is one simulated request (fleet-nic), one
   simulated coherence access (coherence-mesi) or one simulated
   kilocycle (heartbeat-omp). *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "iter_s.tail" "s" Lower;
    m "minor_words_per_op" "words/op" Lower;
    m "top_heap_mb" "MB" Lower;
  ]

(* The median iteration time and the whole-run rate.  Every report
   prints them, but they carry no bound: host speed moves between a
   slow floor and faster phases a few seconds long, and the share of
   fast time in a run shifts these two by up to a third between runs
   of the same code, more than any bound allows.  iter_s.tail sits on
   the floor and holds.  The traced run's result records them. *)
let unbounded =
  [
    m "iter_s.p50" "s" Lower;
    m "sim_ops_per_s" "op/s" Higher;
  ]

(* Printed by a run with --trace 1, on every workload; a layer the
   workload does not exercise reads 0.  Counts are per iteration,
   averaged over the workload's input variants, so they repeat
   exactly for a given seed.  Host times come from the benchmark's
   spans around each call into a layer. *)
let per_layer =
  [
    m "coherence.host_s" "s" Lower;
    m "coherence.ns_per_access" "ns" Lower;
    m "coherence.hit_ratio" "ratio" Higher;
    m "coherence.dir_per_access" "ratio" Lower;
    m "coherence.invalidations" "count" Lower;
    m "coherence.minor_words_per_access" "words" Lower;
    m "fleet.host_s" "s" Lower;
    m "fleet.windows" "count" Lower;
    m "fleet.ns_per_window" "ns" Lower;
    m "fleet.parallel_over_serial" "ratio" Lower;
    m "fleet.retries" "count" Lower;
    m "fleet.nacks" "count" Lower;
    m "fleet.failed" "count" Lower;
    m "fleet.net_msgs" "count" Lower;
    m "fleet.gossip_msgs" "count" Lower;
    m "service.completions" "count" Higher;
    m "service.utilization" "ratio" Higher;
    m "service.queue_p99_us" "sim_us" Lower;
    m "service.service_p99_us" "sim_us" Lower;
    m "service.e2e_p99_us" "sim_us" Lower;
    m "hw.irq_dispatches" "count" Lower;
    m "hw.ipi_sends" "count" Lower;
    m "hw.nic_rx_pkts" "count" Higher;
    m "hw.nic_drops" "count" Lower;
    m "kernel.context_switches" "count" Lower;
    m "kernel.preemptions" "count" Lower;
    m "kernel.nic_irqs" "count" Lower;
    m "kernel.nic_polls" "count" Lower;
    m "kernel.nic_poll_useful_ratio" "ratio" Higher;
    m "kernel.nic_wasted_kcycles" "kcycles" Lower;
    m "engine.timer_fires" "count" Lower;
    m "engine.ns_per_timer_fire" "ns" Lower;
    m "heartbeat.host_s" "s" Lower;
    m "heartbeat.promotions" "count" Lower;
    m "heartbeat.steals" "count" Lower;
    m "heartbeat.delivery_ratio" "ratio" Higher;
    m "heartbeat.ns_per_promotion" "ns" Lower;
    m "omp.host_s" "s" Lower;
    m "omp.chunks" "count" Lower;
    m "omp.regions" "count" Lower;
    m "omp.ns_per_chunk" "ns" Lower;
    m "gc.minor_collections" "count" Lower;
    m "gc.major_collections" "count" Lower;
    m "gc.pause_ms" "ms" Lower;
    m "bench.gen_s" "s" Lower;
    m "trace.overhead_frac" "frac" Lower;
  ]
  @ unbounded

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let is_alnum c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_alnum c || String.contains "_/%.-" c) s

let better_name = function Lower -> "lower" | Higher -> "higher"

(* Every value is printed with all its digits; a non-finite value
   (an empty ratio) would not be JSON, so it reads 0. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The last line of a run's output: the JSON result object. *)
let result_json ~correct ~attempted ~failed values =
  let metric (s, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (json_number v)
      s.unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric values))
