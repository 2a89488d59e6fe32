open Iw_engine

(* The interrupt an IPI raises on arrival.  It carries no per-send
   data, so a group builds it once per target and every send reuses
   it. *)
let delivery s costs ~target ~handler ~after () =
  let obs = Cpu.obs target in
  if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"ipi_recv" ~cat:"hw"
      ~cpu:(Cpu.id target) ~ts:(Sim.now s) ();
  Cpu.interrupt target ~dispatch:costs.Platform.interrupt_dispatch
    ~return_cost:costs.Platform.interrupt_return ~handler ~after

(* One send: count it, then put [arrive] on the wire. *)
let transmit s plat target arrive =
  let costs = plat.Platform.costs in
  let obs = Cpu.obs target in
  Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Ipi_sends;
  if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"ipi_send" ~cat:"hw"
      ~cpu:(-1) ~ts:(Sim.now s) ();
  let plan = Iw_faults.Plan.ambient () in
  if not (Iw_faults.Plan.enabled plan) then
    Sim.schedule_after_unit s costs.ipi_latency arrive
  else begin
    (* The injection point is the wire itself: the sender has already
       paid its cost and counted the send; whether the message lands,
       lands late, or lands twice is the fault plan's call.  Kinds are
       queried in a fixed order so each kind's schedule is stable. *)
    let cpu = Cpu.id target and ts = Sim.now s in
    if Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Ipi_drop ~cpu ~ts then
      ()
    else begin
      let latency =
        if Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Ipi_delay ~cpu ~ts
        then costs.ipi_latency + Iw_faults.Plan.ipi_delay_cycles plan
        else costs.ipi_latency
      in
      Sim.schedule_after_unit s latency arrive;
      if Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Ipi_dup ~cpu ~ts then
        Sim.schedule_after_unit s (latency + costs.ipi_latency) arrive
    end
  end

let send s plat ~target ~handler ~after =
  transmit s plat target
    (delivery s plat.Platform.costs ~target ~handler ~after)

type group = {
  g_sim : Sim.t;
  g_plat : Platform.t;
  g_targets : Cpu.t array;
  g_arrive : (unit -> unit) array;  (* per target, built once *)
}

let group s plat ~targets ~handler ~after =
  let targets = Array.of_list targets in
  {
    g_sim = s;
    g_plat = plat;
    g_targets = targets;
    g_arrive =
      Array.map
        (fun target ->
          let cid = Cpu.id target in
          delivery s plat.Platform.costs ~target
            ~handler:(fun ~preempted -> handler cid ~preempted)
            ~after:(fun () -> after cid))
        targets;
  }

let fire g =
  for i = 0 to Array.length g.g_targets - 1 do
    transmit g.g_sim g.g_plat g.g_targets.(i) g.g_arrive.(i)
  done
