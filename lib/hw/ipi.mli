(** Inter-processor interrupts.

    The sender pays [ipi_send] cycles (accounted by the caller, since
    it happens inside whatever grant is running); after [ipi_latency]
    the interrupt is injected on the target core with the full
    architectural dispatch cost. *)

val send :
  Iw_engine.Sim.t ->
  Platform.t ->
  target:Cpu.t ->
  handler:(preempted:int -> int) ->
  after:(unit -> unit) ->
  unit
(** Deliver a single IPI to [target]. *)

type group
(** A fixed set of targets with their handlers, built once: every
    {!fire} reuses the same per-target delivery closures. *)

val group :
  Iw_engine.Sim.t ->
  Platform.t ->
  targets:Cpu.t list ->
  handler:(int -> preempted:int -> int) ->
  after:(int -> unit) ->
  group
(** [handler] and [after] receive the target core id. *)

val fire : group -> unit
(** One ICR broadcast: a {!send} to every target, in list order, each
    receiving the interrupt after the same fabric latency.  This is
    the §IV-B Nautilus heartbeat mechanism: one LAPIC timer tick on
    CPU 0 fans out to all workers at once.  On a quiet wire it
    allocates nothing. *)
