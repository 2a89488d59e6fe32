(* coherence-mesi: per-core access streams drawn from the eight public
   PBBS sharing mixes, replayed through Machine.access on the E6
   machine (24 cores, 12 per socket) with coherence fully tracked
   (MESI, deactivation Off).  The benchmark generates the streams
   itself, packing each access into one int, so the timed part is the
   directory and caches alone.  Each replay starts from a fresh
   machine: the modelled caches start empty. *)

open Iw_coherence

let params = Machine.default_params ~cores:24 ~cores_per_socket:12
let cores = params.Machine.cores

(* Packed access: address lsl 3, bit 2 = write, bits 0-1 = hint. *)
let hint_shared = 0
let hint_private = 1
let hint_ro = 2

let private_base core = (core + 1) lsl 30
let ro_base = 1 lsl 28
let shared_base = 1 lsl 27

(* One access for [core] under [mix]: a region by the mix's private /
   read-only / shared fractions, an address in the region's hot set
   with probability [locality] (the whole region otherwise), and a
   write by the region's write fraction. *)
let gen_access (mix : Traces.mix) rng ~core =
  let open Iw_engine in
  let in_region base size_kb hot_kb =
    let size = size_kb * 1024 in
    let hot = max 64 (min size (hot_kb * 1024)) in
    base + Rng.int rng (if Rng.float rng 1.0 < mix.locality then hot else size)
  in
  let pack addr write hint = (addr lsl 3) lor (if write then 4 else 0) lor hint in
  let r = Rng.float rng 1.0 in
  if r < mix.private_frac then
    pack
      (in_region (private_base core) mix.private_ws_kb 64)
      (Rng.float rng 1.0 < mix.write_frac_private)
      hint_private
  else if r < mix.private_frac +. mix.ro_frac then
    pack (in_region ro_base mix.ro_kb 64) false hint_ro
  else
    pack
      (in_region shared_base mix.shared_kb mix.shared_kb)
      (Rng.float rng 1.0 < mix.write_frac_shared)
      hint_shared

(* The streams of all cores for one mix, interleaved round-robin so
   contention patterns overlap: access i belongs to core i mod cores. *)
let gen_stream mix ~seed ~per_core =
  let rngs = Array.init cores (fun c -> Iw_engine.Rng.create ~seed:((seed * 1009) + c)) in
  Array.init (cores * per_core) (fun i ->
      let core = i mod cores in
      gen_access mix rngs.(core) ~core)

let private_hints = Array.init cores (fun c -> Machine.Private_to c)

let replay m stream =
  let core = ref 0 in
  for i = 0 to Array.length stream - 1 do
    let a = Array.unsafe_get stream i in
    let c = !core in
    let h = a land 3 in
    let hint =
      if h = hint_private then private_hints.(c)
      else if h = hint_ro then Machine.Read_only
      else Machine.Shared_data
    in
    Machine.access m ~core:c ~addr:(a lsr 3) ~write:(a land 4 <> 0) ~hint;
    core := if c + 1 = cores then 0 else c + 1
  done

let digest ms =
  Bench.digest_of
    (List.concat_map
       (fun m ->
         let c = Machine.counters m in
         List.map string_of_int
           [
             c.accesses; c.hits; c.misses; c.dir_requests; c.invalidations;
             c.data_transfers; c.writebacks; c.ctrl_msgs; c.data_msgs;
             Machine.makespan m;
           ]
         @ [ Bench.hexf (Machine.interconnect_energy m) ])
       ms)

let check streams ms =
  List.fold_left2
    (fun problems (name, stream) m ->
      let c = Machine.counters m in
      problems
      |> Bench.check (c.accesses = c.hits + c.misses)
           (Printf.sprintf "coherence-mesi %s: %d accesses <> %d hits + %d misses"
              name c.accesses c.hits c.misses)
      |> Bench.check
           (c.accesses = Array.length stream)
           (Printf.sprintf "coherence-mesi %s: %d accesses counted, %d replayed"
              name c.accesses (Array.length stream))
      |> Bench.check (Machine.swmr_holds m)
           (Printf.sprintf "coherence-mesi %s: SWMR violated" name))
    [] streams ms

let counts ms =
  let sum f = float_of_int (List.fold_left (fun acc m -> acc + f (Machine.counters m)) 0 ms) in
  [
    ("coherence.accesses", sum (fun c -> c.accesses));
    ("coherence.hits", sum (fun c -> c.hits));
    ("coherence.dir_requests", sum (fun c -> c.dir_requests));
    ("coherence.invalidations", sum (fun c -> c.invalidations));
  ]

let make ?(per_core = 4_000) () =
  let generate ~seed =
    let inputs =
      Array.init Bench.variants (fun v ->
          let seed = Bench.variant_seed ~seed v in
          List.mapi
            (fun k (b : Traces.bench) ->
              (b.bench_name, gen_stream b.mix ~seed:((seed * 16) + k) ~per_core))
            Traces.pbbs_suite)
    in
    fun v spans ->
      let streams = inputs.(v) in
      let ms =
        List.map
          (fun (_, stream) ->
            let m = Span.with_ spans "coherence.create" (fun () -> Machine.create ~params Machine.Off) in
            Span.with_ spans "coherence.replay" (fun () -> replay m stream);
            m)
          streams
      in
      fun () ->
        let c = counts ms in
        {
          Bench.ops = int_of_float (List.assoc "coherence.accesses" c);
          digest = digest ms;
          problems = check streams ms;
          counts = c;
        }
  in
  {
    Bench.name = "coherence-mesi";
    op = "simulated access";
    rate_alias = ("sim_access_per_s", 1.0);
    generate;
  }
