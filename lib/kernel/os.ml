type t = {
  os_name : string;
  pick : int;
  pick_rt : int;
  switch_int : int;
  switch_fp_extra : int;
  spawn : int;
  exit : int;
  block : int;
  wake : int;
  wake_latency : int;
  sleep_arm : int;
  timer_extra : int;
  timer_jitter : Iw_engine.Rng.t -> int;
  tick_cost : int;
  tick_noise : Iw_engine.Rng.t -> int;
  uncontended_sync : int;
}

(* [max 0.0 x] for the jitter draws, typed so that the float is not
   boxed for the polymorphic [max] on every timer expiry. *)
let clamp0 x = if x > 0.0 then x else 0.0

let nautilus plat =
  let c = plat.Iw_hw.Platform.costs in
  {
    os_name = "nautilus";
    pick = c.sched_pick;
    pick_rt = c.sched_pick_rt;
    switch_int = c.ctx_save_int + c.ctx_restore_int;
    switch_fp_extra = c.fp_save + c.fp_restore;
    spawn = c.thread_create;
    exit = c.thread_exit;
    block = 150;
    wake = 200;
    wake_latency = c.ipi_latency;
    sleep_arm = c.timer_program;
    (* Kernel-mode callback dispatched straight from the handler. *)
    timer_extra = c.timer_path_direct;
    timer_jitter = (fun _ -> 0);
    tick_cost = c.tick_update;
    tick_noise = (fun _ -> 0);
    uncontended_sync = c.atomic_rmw;
  }

let linux plat =
  let c = plat.Iw_hw.Platform.costs in
  let crossing = c.kernel_entry + c.kernel_exit in
  {
    os_name = "linux";
    pick = c.cfs_pick;
    pick_rt = c.cfs_pick + 150;
    (* Every involuntary switch takes the trap path with speculation
       mitigations in addition to moving register state. *)
    switch_int = c.ctx_save_int + c.ctx_restore_int + crossing;
    switch_fp_extra = c.fp_save + c.fp_restore;
    spawn = c.thread_create_user;
    exit = 2500;
    block = c.futex_wait + crossing;
    wake = c.futex_wake + crossing;
    wake_latency = 1500;
    sleep_arm = c.timer_program + crossing;
    (* hrtimer bookkeeping, softirq, then a signal frame to user space
       and a sigreturn afterwards: the §IV-B event-delivery chain. *)
    timer_extra = c.timer_path_softirq + c.signal_deliver + c.signal_return;
    timer_jitter =
      (fun rng ->
        (* hrtimer slack plus softirq batching and the occasional long
           non-preemptible section; these are what keep user-level
           event delivery from tracking a fine-grained grid (§IV-B). *)
        let slack =
          clamp0 (Iw_engine.Rng.gaussian rng ~mu:8000.0 ~sigma:8000.0)
        in
        let tail =
          if Iw_engine.Rng.float rng 1.0 < 0.08 then
            Iw_engine.Rng.int rng 90_000
          else 0
        in
        int_of_float slack + tail);
    (* A general-purpose tick carries cputime/RCU/load accounting on
       top of the basic timer update. *)
    tick_cost = c.tick_update + c.tick_accounting_extra;
    tick_noise =
      (fun rng ->
        (* Deferred kernel work rides the tick now and then; any one
           core's stall stretches every barrier it precedes. *)
        if Iw_engine.Rng.float rng 1.0 < 0.30 then
          Iw_engine.Rng.int rng 30_000
        else 0);
    uncontended_sync = c.atomic_rmw;
  }

let linux_rt plat =
  let base = linux plat in
  {
    base with
    os_name = "linux-rt";
    pick = base.pick_rt;
    timer_extra =
      plat.Iw_hw.Platform.costs.timer_path_softirq
      + plat.Iw_hw.Platform.costs.signal_deliver
      + plat.Iw_hw.Platform.costs.signal_return;
    timer_jitter =
      (fun rng ->
        int_of_float
          (clamp0 (Iw_engine.Rng.gaussian rng ~mu:400.0 ~sigma:250.0)));
  }
