type hint = Shared_data | Private_to of int | Read_only

type deactivation = Off | Private_only | Private_and_ro

type params = {
  cores : int;
  cores_per_socket : int;
  cache_kb : int;
  ways : int;
  line_bytes : int;
  l1_hit : int;
  dir_lookup : int;
  hop_latency : int;
  mem_latency : int;
  cache_to_cache : int;
  inval_cost : int;
  ctrl_energy : float;
  data_energy : float;
}

let default_params ~cores ~cores_per_socket =
  {
    cores;
    cores_per_socket;
    cache_kb = 256;
    ways = 8;
    line_bytes = 64;
    l1_hit = 4;
    dir_lookup = 20;
    hop_latency = 40;
    mem_latency = 150;
    cache_to_cache = 40;
    inval_cost = 20;
    ctrl_energy = 1.0;
    data_energy = 4.0;
  }

type counters = {
  accesses : int;
  hits : int;
  misses : int;
  dir_requests : int;
  invalidations : int;
  data_transfers : int;
  writebacks : int;
  ctrl_msgs : int;
  data_msgs : int;
}

(* Directory state of a line, packed into one int so the tracked path
   allocates nothing: [d_none] = no entry; otherwise bit [c + 1] is set
   for each core [c] the directory lists, and bit 0 marks a single
   owner (exactly one core bit).  Hence at most [max_cores] cores. *)
let d_none = 0

let max_cores = 62

let core_bit c = 1 lsl (c + 1)

let owned c = core_bit c lor 1

(* The cores listed in [d] other than [core], as a mask with bit [c]
   for core [c]. *)
let others d core = (d land lnot (core_bit core)) lsr 1

let rec low_bit bits c = if bits land 1 <> 0 then c else low_bit (bits lsr 1) (c + 1)

let owner d = low_bit (d lsr 1) 0

type t = {
  p : params;
  deact : deactivation;
  obs : Iw_obs.Obs.t;
  caches : Cache.t array;
  (* Packed state per line.  A key is present iff the line has ever
     been coherence-tracked: writebacks store [d_none] instead of
     removing the key, so this one table also answers [swmr_holds]. *)
  dir : int Iw_engine.Itbl.t;
  (* Direct-mapped filter in front of [dir]'s membership check:
     marking is idempotent, so skipping the probe when the filter
     already holds the line is a pure win.  -1 = empty (lines are
     non-negative). *)
  tracked_filter : int array;
  cycles : int array;
  mutable c_accesses : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_dir : int;
  mutable c_inval : int;
  mutable c_data : int;
  mutable c_wb : int;
  mutable c_ctrl_msgs : int;
  mutable c_data_msgs : int;
  (* One slot: a float field of this mixed record would be boxed on
     every addition. *)
  energy : float array;
}

let create ?obs ?params deact =
  let obs = match obs with Some o -> o | None -> Iw_obs.Obs.inherit_trace () in
  let p =
    match params with
    | Some p -> p
    | None -> default_params ~cores:24 ~cores_per_socket:12
  in
  if p.cores > max_cores then
    invalid_arg
      (Printf.sprintf "Machine.create: %d cores, at most %d (one-int sharer mask)"
         p.cores max_cores);
  {
    p;
    deact;
    obs;
    caches =
      Array.init p.cores (fun _ ->
          Cache.create ~size_kb:p.cache_kb ~ways:p.ways ~line_bytes:p.line_bytes);
    dir = Iw_engine.Itbl.create ~capacity:(1 lsl 16) ~dummy:d_none ();
    tracked_filter = Array.make (1 lsl 15) (-1);
    cycles = Array.make p.cores 0;
    c_accesses = 0;
    c_hits = 0;
    c_misses = 0;
    c_dir = 0;
    c_inval = 0;
    c_data = 0;
    c_wb = 0;
    c_ctrl_msgs = 0;
    c_data_msgs = 0;
    energy = [| 0.0 |];
  }

let params t = t.p

let socket t core = core / t.p.cores_per_socket

let hops t a b =
  if a = b then 0 else if socket t a = socket t b then 1 else 3

(* Home (directory slice / memory controller) of a line: address hash
   across cores.  Deactivated private data is instead homed at its
   owner — the first-touch placement a runtime that knows ownership
   can guarantee. *)
let home t line = line * 2654435761 mod t.p.cores |> abs

let ctrl_msg t h =
  if h > 0 then begin
    t.c_ctrl_msgs <- t.c_ctrl_msgs + 1;
    t.energy.(0) <- t.energy.(0) +. (t.p.ctrl_energy *. float_of_int h)
  end

let data_msg t h =
  t.c_data_msgs <- t.c_data_msgs + 1;
  if h > 0 then t.energy.(0) <- t.energy.(0) +. (t.p.data_energy *. float_of_int h)

let charge t core c = t.cycles.(core) <- t.cycles.(core) + c

(* [core]'s Modified copy of [line] goes home and the directory entry
   is cleared.  The line may be a deactivated one, which must stay out
   of [dir]. *)
let writeback t core line =
  t.c_wb <- t.c_wb + 1;
  data_msg t (hops t core (home t line));
  if Iw_engine.Itbl.mem t.dir line then Iw_engine.Itbl.set t.dir line d_none

(* Handle an eviction returned by Cache.install under tracked MESI.
   Clean (E/S) victims drop silently; the directory may retain a stale
   sharer, which later invalidations handle as no-ops. *)
let tracked_evict t core e =
  if e >= 0 && Cache.evicted_state e = Cache.Modified then
    writeback t core (Cache.evicted_line e)

let deact_evict t hint e =
  if e >= 0 && Cache.evicted_state e = Cache.Modified then begin
    (* Write back to the local (private) or home (ro) memory. *)
    let h = match hint with Private_to _ -> 0 | _ -> 1 in
    t.c_wb <- t.c_wb + 1;
    data_msg t h
  end

(* Invalidate one remote sharer through the directory: a request and
   an ack, each [ho] hops; returns [ho].  Dir_drop_ack injection: the
   ack is lost on the way home, so the directory times out and replays
   the invalidation (a second request/ack pair) and the requester
   stalls for the extra round trip.  The copy itself was already
   dropped by the first request, so replaying can never create a
   second writer — SWMR is preserved by construction and asserted by
   [swmr_holds]. *)
let inval_sharer t plan ~core ~line ~addr o =
  t.c_inval <- t.c_inval + 1;
  let ho = hops t (home t line) o in
  ctrl_msg t ho;
  (* ack *)
  ctrl_msg t ho;
  if
    Iw_faults.Plan.enabled plan
    && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Dir_drop_ack
         ~cpu:core ~ts:t.cycles.(core)
  then begin
    ctrl_msg t ho;
    ctrl_msg t ho;
    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Dir_ack_retry;
    charge t core (t.p.inval_cost + (2 * ho * t.p.hop_latency))
  end;
  Cache.invalidate t.caches.(o) addr;
  ho

(* Invalidate every core in [bits] (bit [o] = core [o]) in ascending
   core order; returns the farthest hop count, [far] if none. *)
let rec inval_sharers t plan ~core ~line ~addr bits o far =
  if bits = 0 then far
  else if bits land 1 = 0 then
    inval_sharers t plan ~core ~line ~addr (bits lsr 1) (o + 1) far
  else
    let ho = inval_sharer t plan ~core ~line ~addr o in
    inval_sharers t plan ~core ~line ~addr (bits lsr 1) (o + 1)
      (if ho > far then ho else far)

let is_deactivated t hint =
  match (t.deact, hint) with
  | (Private_only | Private_and_ro), Private_to _ | Private_and_ro, Read_only -> true
  | _ -> false

(* The home's memory supplies the line. *)
let mem_fetch t core hm =
  charge t core t.p.mem_latency;
  t.c_data <- t.c_data + 1;
  data_msg t (max hm 1)

(* Owner [o] supplies the line cache-to-cache, [extra] hops after the
   request reached it. *)
let owner_fetch t core o extra =
  charge t core (t.p.cache_to_cache + ((extra + hops t o core) * t.p.hop_latency));
  t.c_data <- t.c_data + 1;
  data_msg t (max (hops t o core) 1)

let access t ~core ~addr ~write ~hint =
  if core < 0 || core >= t.p.cores then invalid_arg "Machine.access: bad core";
  t.c_accesses <- t.c_accesses + 1;
  let cache = t.caches.(core) in
  let line = Cache.line_of_addr cache addr in
  if is_deactivated t hint then begin
    (* Coherence off: no directory, no invalidations.  Private data is
       homed locally; read-only data replicates freely. *)
    (match hint with
    | Read_only when write ->
        invalid_arg "Machine.access: write to read-only-hinted data"
    | _ -> ());
    match Cache.lookup cache addr with
    | Cache.Modified | Cache.Exclusive | Cache.Shared_state ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit;
        if write then Cache.set_state cache addr Cache.Modified
    | Cache.Invalid ->
        t.c_misses <- t.c_misses + 1;
        let h = match hint with Private_to _ -> 0 | _ -> 1 in
        charge t core (t.p.mem_latency + (2 * h * t.p.hop_latency));
        t.c_data <- t.c_data + 1;
        data_msg t h;
        let st = if write then Cache.Modified else Cache.Exclusive in
        deact_evict t hint (Cache.install cache addr st)
  end
  else begin
    (* Tracked MESI through the directory. *)
    let fi = (line * 2654435761) lsr 16 land ((1 lsl 15) - 1) in
    if Array.unsafe_get t.tracked_filter fi <> line then begin
      Array.unsafe_set t.tracked_filter fi line;
      if not (Iw_engine.Itbl.mem t.dir line) then
        Iw_engine.Itbl.set t.dir line d_none
    end;
    (* Spurious shootdown injection: the line vanishes from this
       core's cache as if a remote invalidation hit it.  A Modified
       line is written back first (the fault may not lose data), then
       the access below misses and the protocol refetches through the
       directory — MESI's own machinery is the recovery path, and
       SWMR still holds because dropping copies can never add a
       second writer. *)
    let plan = Iw_faults.Plan.ambient () in
    (if
       Iw_faults.Plan.enabled plan
       && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Tlb_shootdown
            ~cpu:core ~ts:t.cycles.(core)
     then
       match Cache.lookup cache addr with
       | Cache.Invalid -> ()
       | st ->
           if st = Cache.Modified then writeback t core line;
           Cache.invalidate cache addr;
           charge t core t.p.inval_cost);
    match (Cache.lookup cache addr, write) with
    | (Cache.Modified | Cache.Exclusive), false
    | Cache.Modified, true
    | Cache.Shared_state, false ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit
    | Cache.Exclusive, true ->
        t.c_hits <- t.c_hits + 1;
        charge t core t.p.l1_hit;
        Cache.set_state cache addr Cache.Modified
    | Cache.Shared_state, true ->
        (* Upgrade: invalidate the other sharers via the directory. *)
        t.c_hits <- t.c_hits + 1;
        t.c_dir <- t.c_dir + 1;
        Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
          Iw_obs.Counter.Dir_transitions;
        let hm = hops t core (home t line) in
        ctrl_msg t hm;
        charge t core ((2 * hm * t.p.hop_latency) + t.p.dir_lookup);
        let prev = Iw_engine.Itbl.find t.dir line in
        Iw_engine.Itbl.set t.dir line (owned core);
        let far = inval_sharers t plan ~core ~line ~addr (others prev core) 0 0 in
        charge t core (t.p.inval_cost + (2 * far * t.p.hop_latency));
        Cache.set_state cache addr Cache.Modified
    | Cache.Invalid, _ ->
        t.c_misses <- t.c_misses + 1;
        t.c_dir <- t.c_dir + 1;
        Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
          Iw_obs.Counter.Dir_transitions;
        let hm = hops t core (home t line) in
        ctrl_msg t hm;
        charge t core ((2 * hm * t.p.hop_latency) + t.p.dir_lookup);
        (* A reader joins the cores listed for a line someone else
           holds; anyone else becomes its single owner.  The protocol
           side effects follow the previous state. *)
        let prev = Iw_engine.Itbl.find t.dir line in
        Iw_engine.Itbl.set t.dir line
          (if write || prev = d_none || prev = owned core then owned core
           else (prev land lnot 1) lor core_bit core);
        (* The other core owning the line, or -1. *)
        let o = if prev land 1 <> 0 && prev <> owned core then owner prev else -1 in
        let st =
          if prev = d_none then begin
            mem_fetch t core hm;
            if write then Cache.Modified else Cache.Exclusive
          end
          else if write then begin
            (* Invalidate everyone; data comes cache-to-cache from the
               owner when there is one. *)
            let far = inval_sharers t plan ~core ~line ~addr (others prev core) 0 0 in
            if o >= 0 then owner_fetch t core o 0 else mem_fetch t core hm;
            charge t core (t.p.inval_cost + (2 * far * t.p.hop_latency));
            Cache.Modified
          end
          else if o < 0 then begin
            mem_fetch t core hm;
            Cache.Shared_state
          end
          else begin
            let fwd = hops t (home t line) o in
            if
              (* Stale directory entry: the named owner silently
                 dropped its copy, so the forward bounces.  A Modified
                 copy is written back as part of the drop (the fault
                 may not lose data); recovery is one layer up in the
                 protocol — the home nacks the forward and memory
                 supplies the line. *)
              Iw_faults.Plan.enabled plan
              && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Dir_stale
                   ~cpu:core ~ts:t.cycles.(core)
            then begin
              if Cache.lookup t.caches.(o) addr = Cache.Modified then begin
                t.c_wb <- t.c_wb + 1;
                data_msg t fwd
              end;
              Cache.invalidate t.caches.(o) addr;
              ctrl_msg t fwd;
              (* nack back to the home *)
              ctrl_msg t fwd;
              Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
                Iw_obs.Counter.Dir_stale_refetch;
              charge t core (((2 * fwd) + (2 * hm)) * t.p.hop_latency);
              mem_fetch t core hm
            end
            else begin
              (* Forward; owner downgrades, modified data written back
                 home. *)
              ctrl_msg t fwd;
              owner_fetch t core o fwd;
              if Cache.lookup t.caches.(o) addr = Cache.Modified then begin
                t.c_wb <- t.c_wb + 1;
                data_msg t fwd
              end;
              Cache.set_state t.caches.(o) addr Cache.Shared_state
            end;
            Cache.Shared_state
          end
        in
        tracked_evict t core (Cache.install cache addr st)
  end

let core_cycles t core = t.cycles.(core)

let makespan t = Array.fold_left max 0 t.cycles

(* Epoch boundary: an instant on the machine track at the current
   makespan — workload drivers call this at round/phase boundaries so
   a trace shows where the protocol's time went between epochs. *)
let epoch t ~name =
  let tr = t.obs.Iw_obs.Obs.trace in
  if tr.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant tr ~name ~cat:"coherence" ~cpu:(-1) ~ts:(makespan t) ()

let counters t =
  {
    accesses = t.c_accesses;
    hits = t.c_hits;
    misses = t.c_misses;
    dir_requests = t.c_dir;
    invalidations = t.c_inval;
    data_transfers = t.c_data;
    writebacks = t.c_wb;
    ctrl_msgs = t.c_ctrl_msgs;
    data_msgs = t.c_data_msgs;
  }

let interconnect_energy t = t.energy.(0)

(* Single-writer-multiple-reader: for every line that has ever been
   coherence-tracked, an M or E copy in one cache excludes any copy in
   any other cache. *)
let swmr_holds t =
  let holders = Hashtbl.create 64 in
  Array.iteri
    (fun core cache ->
      Cache.fold cache ~init:() ~f:(fun () line st ->
          if Iw_engine.Itbl.mem t.dir line then begin
            let cur = try Hashtbl.find holders line with Not_found -> [] in
            Hashtbl.replace holders line ((core, st) :: cur)
          end))
    t.caches;
  Hashtbl.fold
    (fun _line copies ok ->
      ok
      &&
      let exclusive =
        List.exists
          (fun (_, st) -> st = Cache.Modified || st = Cache.Exclusive)
          copies
      in
      (not exclusive) || List.length copies = 1)
    holders true
