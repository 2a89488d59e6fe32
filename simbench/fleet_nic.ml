(* fleet-nic: the path `serve` users get.  A heterogeneous two-machine
   fleet (one KNL-like Nautilus box, one Linux server box) behind the
   po2 balancer, every frame through the simulated NIC in hybrid
   IRQ/poll mode, open-loop Poisson load with lognormal demand at
   about 0.7 fleet utilisation, no faults armed.

   The timed call is Fleet.run ~parallel:false, the `serve
   --fleet-serial` path.  The default mode, one domain per machine,
   hands off to both machine domains at every conservative window; on
   a 2-vCPU shared host any time the host takes a vCPU away stalls
   that hand-off, so its host time swings far more between runs than
   the serial mode's and cannot be held to the benchmark's bounds.
   The traced run times the default mode on the same inputs
   (fleet.parallel_over_serial) and requires its digest to match. *)

open Iw_service

type size = { rps : float; duration_us : float }

let full = { rps = 600_000.0; duration_us = 50_000.0 }

let config size ~seed =
  {
    (Fleet.default ()) with
    Fleet.fc_machines = [| Fleet.knl_spec (); Fleet.server_spec () |];
    fc_workload = Workload.Poisson { rps = size.rps; duration_us = size.duration_us };
    fc_policy = Dispatch.Po2;
    fc_demand = Workload.Dlognorm { median_us = 15.0; sigma = 0.8 };
    fc_nic = true;
    fc_nic_mode = Iw_kernel.Nic_driver.Hybrid;
    fc_seed = seed;
  }

let machine_counter (r : Fleet.report) name =
  Array.fold_left
    (fun acc cs -> acc + Option.value ~default:0 (List.assoc_opt name cs))
    0 r.fr_m_counters

let p r h pct = Fleet.percentile_us r h pct

let digest (r : Fleet.report) =
  let ints =
    [
      r.fr_windows; r.fr_arrivals; r.fr_completed; r.fr_failed; r.fr_retries;
      r.fr_nacks; r.fr_net_msgs; r.fr_net_drops; r.fr_gossip_msgs; r.fr_ejects;
      r.fr_elapsed_cycles; r.fr_admission_shed; r.fr_nic_rx; r.fr_nic_drops;
      r.fr_nic_irqs; r.fr_nic_polls; r.fr_nic_empty_polls;
      r.fr_nic_wasted_cycles; r.fr_nic_switches; r.fr_nic_tx;
    ]
    @ Array.to_list r.fr_m_completed
    @ Array.to_list r.fr_m_busy
  in
  let pcts =
    List.concat_map
      (fun h -> List.map (p r h) [ 50.0; 99.0; 99.9 ])
      [ r.fr_total; r.fr_queue; r.fr_service ]
  in
  let counters =
    Array.to_list r.fr_m_counters
    |> List.concat_map (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v))
  in
  Bench.digest_of
    (List.map string_of_int ints @ List.map Bench.hexf pcts @ counters)

let counts (r : Fleet.report) =
  let fi = float_of_int in
  let mc name = fi (machine_counter r name) in
  [
    ("fleet.windows", fi r.fr_windows);
    ("fleet.retries", fi r.fr_retries);
    ("fleet.nacks", fi r.fr_nacks);
    ("fleet.failed", fi r.fr_failed);
    ("fleet.net_msgs", fi r.fr_net_msgs);
    ("fleet.gossip_msgs", fi r.fr_gossip_msgs);
    ("service.completions", fi r.fr_completed);
    ("service.utilization", r.fr_utilization);
    ("service.queue_p99_us", p r r.fr_queue 99.0);
    ("service.service_p99_us", p r r.fr_service 99.0);
    ("service.e2e_p99_us", p r r.fr_total 99.0);
    ("hw.irq_dispatches", mc "irq_dispatches");
    ("hw.ipi_sends", mc "ipi_sends");
    ("hw.nic_rx_pkts", fi r.fr_nic_rx);
    ("hw.nic_drops", fi r.fr_nic_drops);
    ("kernel.context_switches", mc "context_switches");
    ("kernel.preemptions", mc "preemptions");
    ("kernel.nic_irqs", fi r.fr_nic_irqs);
    ("kernel.nic_polls", fi r.fr_nic_polls);
    ( "kernel.nic_poll_useful_ratio",
      if r.fr_nic_polls = 0 then 0.0
      else fi (r.fr_nic_polls - r.fr_nic_empty_polls) /. fi r.fr_nic_polls );
    ("kernel.nic_wasted_kcycles", fi r.fr_nic_wasted_cycles /. 1000.0);
    ("engine.timer_fires", mc "timer_fires");
  ]

let check (r : Fleet.report) =
  let open Bench in
  []
  |> check
       (r.fr_arrivals = r.fr_completed + r.fr_failed + r.fr_admission_shed)
       (Printf.sprintf
          "fleet-nic: %d arrivals <> %d completed + %d failed + %d shed (requests \
           left in flight)"
          r.fr_arrivals r.fr_completed r.fr_failed r.fr_admission_shed)
  |> check (r.fr_completed > 0) "fleet-nic: no request completed"

let make ?(size = full) () =
  let generate ~seed =
    let configs = Array.init Bench.variants (fun v -> config size ~seed:(Bench.variant_seed ~seed v)) in
    fun v spans ->
      let cfg = configs.(v) in
      let r = Span.with_ spans "fleet.run_serial" (fun () -> Fleet.run ~parallel:false cfg) in
      fun () ->
        let d = digest r in
        let problems = check r in
        (* The traced run also checks that the default (parallel) mode
           and the serial mode agree, and times the default mode. *)
        let problems =
          if Span.enabled spans then
            let p = Span.with_ spans "fleet.run" (fun () -> Fleet.run cfg) in
            Bench.check (digest p = d)
              "fleet-nic: Fleet.run default and ~parallel:false digests differ"
              problems
          else problems
        in
        { Bench.ops = r.fr_completed; digest = d; problems; counts = counts r }
  in
  {
    Bench.name = "fleet-nic";
    op = "simulated request";
    rate_alias = ("sim_req_per_s", 1.0);
    generate;
  }
