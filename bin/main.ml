(* interweave: run the paper's experiments from the command line. *)

open Cmdliner

(* Every failing check-style path exits nonzero through this one
   helper, so the exit-code contract is in one place instead of
   scattered per-branch [exit] calls. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let find_experiment id =
  try Interweave.Experiments.find id
  with Not_found -> die "unknown experiment %s (try 'interweave list')" id

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Global RNG seed offset folded into every stream the run creates; \
           0 (the default) keeps the built-in seeds.")

let list_cmd =
  let run () =
    List.iter
      (fun (e : Interweave.Experiments.experiment) ->
        Printf.printf "%-4s %s\n     paper: %s\n" e.id e.title e.paper_claim)
      (Interweave.Experiments.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List every reproducible experiment")
    Term.(const run $ const ())

let jobs_arg =
  Arg.(
    value
    & opt int (Interweave.Driver.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run experiments on up to $(docv) domains (outputs still print in \
           registry order); 1 means serial.")

let run_cmd =
  let ids =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (E1..E16, A1..A5, R1..R4, S1..S4) or 'all'")
  in
  let markdown =
    Arg.(value & flag & info [ "markdown" ] ~doc:"Emit Markdown tables")
  in
  let sample_us =
    Arg.(
      value & opt float 0.0
      & info [ "sample-us" ] ~docv:"US"
          ~doc:
            "Sample windowed telemetry every $(docv) of virtual time in \
             every service/fleet run (tables are byte-identical either \
             way; the series ride along for exporters). 0 disables.")
  in
  let run ids markdown jobs seed sample_us =
    Iw_engine.Rng.set_global_seed seed;
    Iw_obs.Series.set_period_us sample_us;
    let targets =
      if List.mem "all" ids then Interweave.Experiments.all ()
      else List.map find_experiment ids
    in
    Interweave.Driver.parallel_map ~jobs
      (fun (e : Interweave.Experiments.experiment) ->
        if markdown then
          Printf.sprintf "## [%s] %s\n\nPaper: %s\n\n%s" e.id e.title
            e.paper_claim
            (String.concat ""
               (List.map
                  (fun t -> Interweave.Table.to_markdown t ^ "\n")
                  (e.tables ())))
        else Interweave.Experiments.run_to_string e)
      targets
    |> List.iter print_string
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print their tables")
    Term.(const run $ ids $ markdown $ jobs_arg $ seed_arg $ sample_us)

let csv_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Output directory for <id>_<n>.csv files")
  in
  let ids =
    Arg.(
      value
      & opt_all string []
      & info [ "only" ] ~docv:"ID" ~doc:"Restrict to these experiment ids")
  in
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell
  in
  let run dir ids jobs seed =
    Iw_engine.Rng.set_global_seed seed;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let targets =
      match ids with
      | [] -> Interweave.Experiments.all ()
      | ids -> List.map find_experiment ids
    in
    (* Compute in parallel; write and report serially, in registry
       order, so the output and file contents match a serial run. *)
    Interweave.Driver.parallel_map ~jobs
      (fun (e : Interweave.Experiments.experiment) -> (e.id, e.tables ()))
      targets
    |> List.iter (fun (id, tables) ->
           List.iteri
             (fun i (t : Interweave.Table.t) ->
               let path = Filename.concat dir (Printf.sprintf "%s_%d.csv" id i) in
               let oc = open_out path in
               output_string oc
                 (String.concat "," (List.map escape t.headers) ^ "\n");
               List.iter
                 (fun row ->
                   output_string oc
                     (String.concat "," (List.map escape row) ^ "\n"))
                 t.rows;
               close_out oc;
               Printf.printf "wrote %s (%s)\n" path t.title)
             tables)
  in
  Cmd.v
    (Cmd.info "csv" ~doc:"Run experiments and write their tables as CSV")
    Term.(const run $ dir $ ids $ jobs_arg $ seed_arg)

let stacks_cmd =
  let run () =
    let plat = Iw_hw.Platform.knl in
    List.iter
      (fun stack ->
        Printf.printf "%s\n  event delivery: %d cycles, timer mechanism: %d cycles\n"
          (Interweave.Stack.describe stack)
          (Interweave.Stack.event_delivery_cycles stack)
          (Interweave.Stack.timer_mechanism_cost stack))
      [ Interweave.Stack.commodity plat; Interweave.Stack.interwoven plat ]
  in
  Cmd.v
    (Cmd.info "stacks" ~doc:"Describe the commodity and interwoven stacks")
    Term.(const run $ const ())

let trace_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id to run under tracing (e.g. E3)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH"
          ~doc:
            "Chrome trace-event JSON output path (load it in Perfetto); \
             defaults to $(i,ID).trace.json so traces of different \
             experiments don't clobber each other")
  in
  let capacity =
    Arg.(
      value
      & opt int 262_144
      & info
          [ "capacity"; "ring-capacity" ]
          ~docv:"N"
          ~doc:"Ring-buffer capacity in events; oldest events drop beyond it")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the written JSON and fail if malformed or if the ring \
             dropped events (a truncated ring corrupts the export)")
  in
  let flows =
    Arg.(
      value & flag
      & info [ "flows" ]
          ~doc:
            "Also emit Chrome flow events stitching each request's hops \
             (front tier, machine, worker) into one causal arrow chain; \
             only fleet experiments produce them")
  in
  let sample_us =
    Arg.(
      value & opt float 0.0
      & info [ "sample-us" ] ~docv:"US"
          ~doc:
            "Sample windowed telemetry every $(docv) of virtual time and \
             render the series as Perfetto counter lanes in the trace")
  in
  let run id out capacity check flows sample_us =
    let e = find_experiment id in
    let out =
      match out with
      | Some p -> p
      | None -> Printf.sprintf "%s.trace.json" id
    in
    let tr = Iw_obs.Trace.ring ~capacity () in
    Iw_obs.Trace.set_flows tr flows;
    Iw_obs.Series.set_period_us sample_us;
    Iw_obs.Series.clear_published ();
    let obs = Iw_obs.Obs.create ~trace:tr () in
    (* Run serially under an ambient traced context: every kernel,
       CPU, and runtime the experiment creates inherits the ring. *)
    let text =
      Iw_obs.Obs.with_ambient obs (fun () ->
          Interweave.Experiments.run_to_string e)
    in
    print_string text;
    let series = Iw_obs.Series.published () in
    Iw_obs.Series.set_period_us 0.0;
    Iw_obs.Chrome.write_file ~series tr out;
    let dropped = Iw_obs.Trace.dropped tr in
    Printf.printf "wrote %s: %d events (%d dropped, %d series)\n" out
      (Iw_obs.Trace.length tr) dropped (List.length series);
    if check then begin
      (match Iw_obs.Chrome.validate_file out with
      | Ok n -> Printf.printf "validated: %d events ok\n" n
      | Error msg -> die "invalid trace: %s" msg);
      if flows then begin
        match Iw_obs.Chrome.cross_process_flows_file out with
        | Ok 0 -> die "no flow crosses two processes (machines) in %s" out
        | Ok n -> Printf.printf "flows: %d cross-process request(s)\n" n
        | Error msg -> die "invalid trace: %s" msg
      end;
      if dropped > 0 then
        die
          "trace ring dropped %d events; rerun with --ring-capacity %d or more"
          dropped
          (Iw_obs.Trace.emitted tr)
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one experiment with the trace bus on and export a \
          Perfetto-loadable Chrome trace-event JSON file")
    Term.(const run $ id $ out $ capacity $ check $ flows $ sample_us)

let profile_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id to profile (e.g. E1)")
  in
  let folded_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"PATH"
          ~doc:"Write folded-stack lines for flamegraph.pl / speedscope")
  in
  let speedscope_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "speedscope" ] ~docv:"PATH"
          ~doc:"Write a speedscope JSON profile (one track per CPU)")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the printed profile table")
  in
  let capacity =
    Arg.(
      value
      & opt int 1_048_576
      & info [ "ring-capacity" ] ~docv:"N"
          ~doc:"Trace ring capacity; raise it if events are dropped")
  in
  let diff_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"ID2"
          ~doc:
            "Profile a second experiment too and report the frames whose \
             self-cycle share moved between the runs instead of a single \
             profile")
  in
  let threshold =
    Arg.(
      value & opt float 1.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Minimum share movement (percentage points) a frame must show \
                to appear in the --diff report")
  in
  let profile_of id capacity =
    let e = find_experiment id in
    let tr = Iw_obs.Trace.ring ~capacity () in
    let obs = Iw_obs.Obs.create ~trace:tr () in
    ignore
      (Iw_obs.Obs.with_ambient obs (fun () ->
           Interweave.Experiments.run_to_string e));
    Iw_obs.Profile.of_trace tr
  in
  let run id folded_out speedscope_out top capacity diff_id threshold =
    let p = profile_of id capacity in
    (match diff_id with
    | Some id2 ->
        let p2 = profile_of id2 capacity in
        print_string
          (Iw_obs.Profile.render_diff ~threshold ~a_name:id ~b_name:id2 p p2)
    | None -> print_string (Iw_obs.Profile.render_top ~top p));
    if p.Iw_obs.Profile.dropped > 0 then
      Printf.eprintf
        "warning: ring dropped %d events — the profile is truncated; rerun \
         with --ring-capacity %d or more\n"
        p.Iw_obs.Profile.dropped
        (p.Iw_obs.Profile.span_count + p.Iw_obs.Profile.instant_count
        + p.Iw_obs.Profile.dropped);
    (match folded_out with
    | None -> ()
    | Some path -> (
        Iw_obs.Folded.write_file p path;
        match
          Iw_obs.Folded.check_file path ~total:(Iw_obs.Profile.total_cycles p)
        with
        | Ok n -> Printf.printf "wrote %s: %d stacks (self sum = total)\n" path n
        | Error msg -> die "folded check failed for %s: %s" path msg));
    match speedscope_out with
    | None -> ()
    | Some path -> (
        Iw_obs.Speedscope.write_file ~name:(id ^ " profile") p path;
        match Iw_obs.Speedscope.validate_file path with
        | Ok n -> Printf.printf "wrote %s: %d events ok\n" path n
        | Error msg -> die "invalid speedscope file %s: %s" path msg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one experiment under tracing, reconstruct per-CPU span stacks, \
          and print a self/total cycle profile (optionally exporting \
          flamegraph.pl folded stacks and speedscope JSON); with --diff, \
          compare two experiments' self-cycle shares frame by frame")
    Term.(
      const run $ id $ folded_out $ speedscope_out $ top $ capacity $ diff_id
      $ threshold)

let golden_cmd =
  let ids =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (default: every experiment)")
  in
  let update =
    Arg.(
      value & flag
      & info [ "update" ] ~doc:"Regenerate snapshots instead of checking")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Check counters against snapshots (the default)")
  in
  let dir =
    Arg.(
      value & opt string "golden"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Snapshot directory")
  in
  let spans =
    Arg.(
      value & flag
      & info [ "spans" ]
          ~doc:
            "Also gate coarse trace shape: run each experiment under a \
             counting trace sink and compare per-category span tallies \
             against $(b,ID.spans.txt) snapshots, so a silently-dead probe \
             is caught even when counters still balance")
  in
  let run ids update check dir spans jobs =
    if update && check then die "golden: pass at most one of --check / --update";
    let targets =
      match ids with
      | [] -> Interweave.Experiments.all ()
      | ids -> List.map find_experiment ids
    in
    let path_of (e : Interweave.Experiments.experiment) =
      Filename.concat dir (e.id ^ ".txt")
    in
    let spans_path_of (e : Interweave.Experiments.experiment) =
      Filename.concat dir (e.id ^ ".spans.txt")
    in
    (* Each worker runs its experiment under its own collecting ambient
       context (ambient state is domain-local), so the parallel fan-out
       cannot mix counters across experiments.  With --spans the run
       additionally feeds a counting trace sink; tracing-on runs are
       byte-identical to tracing-off ones (probes only tally), so one
       run serves both gates. *)
    let results =
      Interweave.Driver.parallel_map ~jobs
        (fun (e : Interweave.Experiments.experiment) ->
          if spans then begin
            let tr = Iw_obs.Trace.counting () in
            let _, counters, _ =
              Interweave.Experiments.run_with_counters ~trace:tr e
            in
            (e, counters, Some (Iw_obs.Trace.shape_counts tr))
          end
          else
            let _, counters, _ = Interweave.Experiments.run_with_counters e in
            (e, counters, None))
        targets
    in
    if update then begin
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      List.iter
        (fun ((e : Interweave.Experiments.experiment), counters, shape) ->
          let path = path_of e in
          Iw_obs.Golden.write_file
            ~header:
              [
                Printf.sprintf "golden counters for %s (%s)" e.id e.title;
                "regenerate with: interweave golden --update " ^ e.id;
              ]
            counters path;
          Printf.printf "wrote %s (%d counters)\n" path (List.length counters);
          match shape with
          | None -> ()
          | Some shape ->
              let spath = spans_path_of e in
              Iw_obs.Golden.write_file
                ~header:
                  [
                    Printf.sprintf "golden span shape for %s (cat/name tallies)"
                      e.id;
                    "regenerate with: interweave golden --update --spans "
                    ^ e.id;
                  ]
                shape spath;
              Printf.printf "wrote %s (%d span categories)\n" spath
                (List.length shape))
        results
    end
    else begin
      let failures = ref 0 in
      let gate ~what ~tolerances e path actual =
        match Iw_obs.Golden.read_file path with
        | exception Sys_error _ ->
            incr failures;
            Printf.printf "%-4s MISSING %s (run 'golden --update%s %s')\n"
              e.Interweave.Experiments.id path
              (if what = "spans" then " --spans" else "")
              e.id
        | exception Invalid_argument msg ->
            incr failures;
            Printf.printf "%-4s UNREADABLE %s: %s\n" e.id path msg
        | expected -> (
            match Iw_obs.Golden.compare_counters ~tolerances ~expected actual with
            | [] ->
                Printf.printf "%-4s ok (%d %s)\n" e.id (List.length expected)
                  what
            | drifts ->
                incr failures;
                Printf.printf "%-4s DRIFT (%s)\n" e.id what;
                List.iter
                  (fun d ->
                    Printf.printf "     %s\n" (Iw_obs.Golden.render_drift d))
                  drifts)
      in
      List.iter
        (fun ((e : Interweave.Experiments.experiment), counters, shape) ->
          gate ~what:"counters" ~tolerances:Iw_obs.Golden.default_tolerances e
            (path_of e) counters;
          match shape with
          | None -> ()
          | Some shape ->
              gate ~what:"spans" ~tolerances:Iw_obs.Golden.shape_tolerances e
                (spans_path_of e) shape)
        results;
      if !failures > 0 then die "golden: %d gate(s) drifted" !failures
    end
  in
  Cmd.v
    (Cmd.info "golden"
       ~doc:
         "Re-run experiments and compare their machine-wide counter totals \
          (and with --spans, coarse trace shape) against committed golden \
          snapshots (or --update to regenerate); drift beyond per-counter \
          tolerance fails the command")
    Term.(const run $ ids $ update $ check $ dir $ spans $ jobs_arg)

let sweep_cmd =
  let field =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FIELD"
          ~doc:
            "Cost-model field to sweep (default tick_update), or \
             $(i,FIELD1,FIELD2) for a 2-D grid")
  in
  let values =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "values" ] ~docv:"V1,V2,..."
          ~doc:"Explicit values; default 0,v/4,v/2,v,2v,4v around the preset")
  in
  let values2 =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "values2" ] ~docv:"V1,V2,..."
          ~doc:"Values for the second field of a 2-D grid (columns)")
  in
  let os =
    Arg.(
      value
      & opt (enum [ ("nk", `Nk); ("linux", `Linux) ]) `Nk
      & info [ "os" ] ~docv:"OS" ~doc:"Personality for the 2-D grid probe")
  in
  let list_fields =
    Arg.(value & flag & info [ "list" ] ~doc:"List sweepable cost fields")
  in
  let run field values values2 os list_fields =
    let module Sweep = Interweave.Machine.Sweep in
    let plat = Iw_hw.Platform.small in
    let resolve fname =
      match Sweep.find fname with
      | Some fd -> fd
      | None -> die "unknown cost field %s (try 'sweep --list')" fname
    in
    if list_fields then
      List.iter
        (fun (fd : Sweep.field) ->
          Printf.printf "%-28s %s (default %d)\n" fd.f_name fd.f_doc
            (fd.get Iw_hw.Platform.small.Iw_hw.Platform.costs))
        Sweep.fields
    else
      let fname = Option.value field ~default:"tick_update" in
      match String.split_on_char ',' fname with
      | [ f1; f2 ] ->
          let fd1 = resolve f1 and fd2 = resolve f2 in
          let vs1 =
            match values with
            | Some vs -> vs
            | None -> Sweep.default_values plat fd1
          in
          let vs2 =
            match values2 with
            | Some vs -> vs
            | None -> Sweep.default_values plat fd2
          in
          print_string
            (Interweave.Table.render (Sweep.grid ~plat ~os fd1 fd2 vs1 vs2))
      | [ _ ] ->
          let fd = resolve fname in
          let values =
            match values with
            | Some vs -> vs
            | None -> Sweep.default_values plat fd
          in
          print_string (Interweave.Table.render (Sweep.sensitivity fd values))
      | _ -> die "sweep: give FIELD or FIELD1,FIELD2"
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Vary one hoisted cost-model field across a range and print a \
          sensitivity table for the pinned probe workload, or a 2-D \
          FIELD1,FIELD2 grid of elapsed cycles")
    Term.(const run $ field $ values $ values2 $ os $ list_fields)

let faults_cmd =
  let id =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ID"
          ~doc:"Experiment id to run under fault injection (e.g. E3, R1)")
  in
  let list_kinds =
    Arg.(
      value & flag
      & info [ "list-kinds" ]
          ~doc:
            "Print every fault kind the plan can arm, one per line, and exit \
             (the source of truth for --kinds)")
  in
  let rate =
    Arg.(
      value & opt float 1e-3
      & info [ "rate" ] ~docv:"P"
          ~doc:"Per-opportunity fault probability in [0,1]")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan RNG seed")
  in
  let kinds =
    Arg.(
      value
      & opt (some string) None
      & info [ "kinds" ] ~docv:"K1,K2,..."
          ~doc:
            "Comma-separated fault kinds to arm (e.g. ipi-drop,timer-late); \
             default: all kinds")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Fail unless the run completed and, at a nonzero rate, at least \
             one fault was actually injected (guards the injection wiring)")
  in
  let rates =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates" ] ~docv:"P1,P2,..."
          ~doc:
            "Sweep a comma-separated list of fault rates instead of one \
             --rate; reports one row of fault/recovery counters per rate")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:
            "Write the rate sweep as CSV to $(docv) (implies a sweep; \
             without --rates a default rate range is used)")
  in
  let run id rate seed kinds check rates csv list_kinds =
    if list_kinds then begin
      List.iter
        (fun k -> print_endline (Iw_faults.Plan.kind_name k))
        Iw_faults.Plan.all_kinds;
      exit 0
    end;
    let id =
      match id with
      | Some id -> id
      | None -> die "faults: experiment ID required (or use --list-kinds)"
    in
    let e = find_experiment id in
    let kinds =
      match kinds with
      | None -> Iw_faults.Plan.all_kinds
      | Some s ->
          String.split_on_char ',' s
          |> List.map (fun k ->
                 let k = String.trim k in
                 match Iw_faults.Plan.kind_of_string k with
                 | Some k -> k
                 | None ->
                     die "unknown fault kind %s (known: %s)" k
                       (String.concat ", "
                          (List.map Iw_faults.Plan.kind_name
                             Iw_faults.Plan.all_kinds)))
    in
    if rate < 0.0 || rate > 1.0 then die "faults: --rate must be in [0,1]";
    let sweep_rates =
      match rates with
      | Some s ->
          Some
            (String.split_on_char ',' s
            |> List.map (fun r ->
                   let r = String.trim r in
                   match float_of_string_opt r with
                   | Some f when f >= 0.0 && f <= 1.0 -> f
                   | _ -> die "faults: bad rate %s in --rates (need [0,1])" r))
      | None -> (
          match csv with
          | Some _ -> Some [ 0.0; 1e-4; 1e-3; 1e-2; 5e-2 ]
          | None -> None)
    in
    match sweep_rates with
    | Some sweep_rates ->
        (* One row of recovery counters per rate; the run must survive
           every rate, which is the cross-layer recovery claim. *)
        let counter_cols =
          [
            ("injected", Iw_obs.Counter.Fault_injected);
            ("ipi_retry", Iw_obs.Counter.Ipi_retry);
            ("watchdog_fire", Iw_obs.Counter.Watchdog_fire);
            ("virtine_relaunch", Iw_obs.Counter.Virtine_relaunch);
            ("pool_evict", Iw_obs.Counter.Pool_evict);
            ("move_rollback", Iw_obs.Counter.Move_rollback);
            ("dir_ack_retry", Iw_obs.Counter.Dir_ack_retry);
            ("dir_stale_refetch", Iw_obs.Counter.Dir_stale_refetch);
            ("barrier_recover", Iw_obs.Counter.Barrier_recover);
            ("peer_steal", Iw_obs.Counter.Peer_steal);
            ("hedge_sent", Iw_obs.Counter.Hedge_sent);
            ("admission_shed", Iw_obs.Counter.Admission_shed);
            ("corrupt_retry", Iw_obs.Counter.Corrupt_retry);
            ("nic_drop", Iw_obs.Counter.Nic_rx_drops);
            ("nic_irq_recover", Iw_obs.Counter.Nic_irq_recover);
          ]
        in
        let rows =
          List.map
            (fun r ->
              let plan = Iw_faults.Plan.create ~rate:r ~seed ~kinds () in
              let obs = Iw_obs.Obs.create ~collect:true () in
              let out =
                Iw_obs.Obs.with_ambient obs (fun () ->
                    Iw_faults.Plan.with_ambient plan (fun () ->
                        try Ok (Interweave.Experiments.run_to_string e)
                        with Failure msg -> Error msg))
              in
              (match out with
              | Ok _ -> ()
              | Error msg ->
                  die "faults: %s run failed under injection at rate %g: %s"
                    e.id r msg);
              let totals = Iw_obs.Obs.total_counters obs in
              (r, List.map (fun (_, c) -> Iw_obs.Counter.get totals c) counter_cols))
            sweep_rates
        in
        let header = "rate" :: List.map fst counter_cols in
        let lines =
          String.concat "," header
          :: List.map
               (fun (r, cs) ->
                 String.concat ","
                   (Printf.sprintf "%g" r :: List.map string_of_int cs))
               rows
        in
        (match csv with
        | Some path ->
            let oc = open_out path in
            List.iter (fun l -> output_string oc (l ^ "\n")) lines;
            close_out oc;
            Printf.printf "wrote %s: %d rates swept over %s\n" path
              (List.length sweep_rates) e.id
        | None -> List.iter print_endline lines);
        if check then begin
          let nonzero = List.filter (fun (r, _) -> r > 0.0) rows in
          if
            nonzero <> []
            && List.for_all (fun (_, cs) -> List.hd cs = 0) nonzero
          then
            die
              "faults --check: no faults injected at any nonzero rate \
               (injection points not reached?)"
        end
    | None ->
    let plan = Iw_faults.Plan.create ~rate ~seed ~kinds () in
    let obs = Iw_obs.Obs.create ~collect:true () in
    let out =
      Iw_obs.Obs.with_ambient obs (fun () ->
          Iw_faults.Plan.with_ambient plan (fun () ->
              try Ok (Interweave.Experiments.run_to_string e)
              with Failure msg -> Error msg))
    in
    (match out with
    | Ok text -> print_string text
    | Error msg -> die "faults: %s run failed under injection: %s" e.id msg);
    let totals = Iw_obs.Obs.total_counters obs in
    let g id = Iw_obs.Counter.get totals id in
    Printf.printf
      "fault plan: rate %g, seed %d, kinds %s\n\
      \  injected %d | ipi-retries %d | watchdog %d | relaunches %d | \
       pool-evicts %d | rollbacks %d\n\
      \  dir-ack-retries %d | dir-stale-refetches %d | barrier-recoveries %d\n\
      \  peer-steals %d | hedges %d | admission-sheds %d | corrupt-retries %d\n\
      \  nic-drops %d | nic-irq-recoveries %d\n"
      rate seed
      (String.concat "," (List.map Iw_faults.Plan.kind_name kinds))
      (g Iw_obs.Counter.Fault_injected)
      (g Iw_obs.Counter.Ipi_retry)
      (g Iw_obs.Counter.Watchdog_fire)
      (g Iw_obs.Counter.Virtine_relaunch)
      (g Iw_obs.Counter.Pool_evict)
      (g Iw_obs.Counter.Move_rollback)
      (g Iw_obs.Counter.Dir_ack_retry)
      (g Iw_obs.Counter.Dir_stale_refetch)
      (g Iw_obs.Counter.Barrier_recover)
      (g Iw_obs.Counter.Peer_steal)
      (g Iw_obs.Counter.Hedge_sent)
      (g Iw_obs.Counter.Admission_shed)
      (g Iw_obs.Counter.Corrupt_retry)
      (g Iw_obs.Counter.Nic_rx_drops)
      (g Iw_obs.Counter.Nic_irq_recover);
    if check && rate > 0.0 && g Iw_obs.Counter.Fault_injected = 0 then
      die
        "faults --check: no faults injected at rate %g (injection points not \
         reached?)"
        rate
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run one experiment under an ambient deterministic fault plan \
          (dropped IPIs, dead timers, dark cores, ...) and report the \
          fault/recovery counters; the R experiments additionally scope \
          their own per-row plans.  --rates/--csv sweep a rate range into \
          one counter row per rate")
    Term.(
      const run $ id $ rate $ seed $ kinds $ check $ rates $ csv $ list_kinds)

(* A [serve] output column: its header and its cell renderer, kept
   together so adding a column is one entry.  Optional groups are
   spliced in with [on flag]. *)
let on cond cols = if cond then cols else []
let icol name f = (name, fun r -> string_of_int (f r))
let fcol name fmt f = (name, fun r -> Printf.sprintf fmt (f r))

(* The one row path for both serving planes: align the rows on stdout,
   run [detail] (the fleet's per-machine breakdown), then write the
   --csv and --series-csv files. *)
let emit ~csv ~series_csv ?(detail = ignore) ~series cols reports =
  let rows =
    List.map fst cols
    :: List.map (fun r -> List.map (fun (_, cell) -> cell r) cols) reports
  in
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map (fun _ -> 0) cols)
      rows
  in
  List.iter
    (fun row ->
      print_endline
        (String.concat "  " (List.map2 (Printf.sprintf "%*s") widths row)))
    rows;
  detail reports;
  Option.iter
    (fun path ->
      let oc = open_out path in
      List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows;
      close_out oc;
      Printf.printf "wrote %s: %d rows\n" path (List.length reports))
    csv;
  Option.iter
    (fun path ->
      match List.map series reports with
      | [ Some s ] ->
          Iw_obs.Series.write_csv s path;
          Printf.printf "wrote %s: %d samples (%d dropped)\n" path
            (Iw_obs.Series.length s) (Iw_obs.Series.dropped s)
      | [ None ] -> die "serve: --series-csv needs --sample-us > 0"
      | _ -> die "serve: --series-csv needs a single --rps")
    series_csv

(* COUNTxKIND[:WORKERS] tokens joined by '+', e.g. 2xknl:4+2xsrv:2. *)
let parse_hetero s =
  let parse_tok tok =
    let count, rest =
      match String.index_opt tok 'x' with
      | Some i ->
          ( (match int_of_string_opt (String.sub tok 0 i) with
            | Some c when c > 0 -> c
            | _ -> die "serve: bad count in --hetero token %s" tok),
            String.sub tok (i + 1) (String.length tok - i - 1) )
      | None -> die "serve: --hetero token %s is not COUNTxKIND" tok
    in
    let kind, wk =
      match String.index_opt rest ':' with
      | Some i -> (
          ( String.sub rest 0 i,
            match
              int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1))
            with
            | Some w when w > 0 -> Some w
            | _ -> die "serve: bad worker count in --hetero token %s" tok ))
      | None -> (rest, None)
    in
    let spec =
      match kind with
      | "knl" -> Iw_service.Fleet.knl_spec ?workers:wk ()
      | "srv" -> Iw_service.Fleet.server_spec ?workers:wk ()
      | k -> die "serve: unknown machine kind %s in --hetero (knl, srv)" k
    in
    List.init count (fun _ -> spec)
  in
  List.concat_map parse_tok (String.split_on_char '+' (String.trim s))

(* pareto:ALPHA:MIN:MAX or lognorm:MEDIAN:SIGMA, in microseconds. *)
let parse_tail s =
  let fl tok what =
    match float_of_string_opt tok with
    | Some f -> f
    | None -> die "serve: bad %s %s in --tail" what tok
  in
  match String.split_on_char ':' (String.trim s) with
  | [ "pareto"; a; mn; mx ] ->
      Iw_service.Workload.Dpareto
        { alpha = fl a "alpha"; xmin_us = fl mn "min"; xmax_us = fl mx "max" }
  | [ "lognorm"; med; sg ] ->
      Iw_service.Workload.Dlognorm
        { median_us = fl med "median"; sigma = fl sg "sigma" }
  | _ -> die "serve: --tail wants pareto:ALPHA:MIN:MAX or lognorm:MEDIAN:SIGMA"

let serve_cmd =
  let open Term.Syntax in
  let opt c v name docv doc = Arg.value (Arg.opt c v (Arg.info [ name ] ~docv ~doc)) in
  let flag name doc = Arg.value (Arg.flag (Arg.info [ name ] ~doc)) in
  let term =
    let+ os = opt Arg.string "nk" "os" "OS" "OS personality: nk or linux"
    and+ backend =
      opt Arg.string "fiber" "backend" "B" "Request execution backend: fiber or virtine"
    and+ policy =
      opt Arg.string "po2" "policy" "P" "Dispatch policy: rr, random, jsq, po2 or wjsq"
    and+ order = opt Arg.string "fifo" "order" "O" "Queue order: fifo or priority"
    and+ workers = opt Arg.int 8 "workers" "N" "Worker CPUs (one queue each)"
    and+ rpss =
      Arg.(
        value
        & opt_all float [ 20_000.0 ]
        & info [ "rps" ] ~docv:"R"
            ~doc:"Offered load in requests/s; repeat for a sweep (one row each)")
    and+ duration_ms = opt Arg.float 100.0 "duration" "MS" "Run length in milliseconds"
    and+ work_us = opt Arg.float 150.0 "work-us" "US" "Request body service demand"
    and+ cap = opt Arg.int 64 "cap" "N" "Per-worker queue bound (drop-tail)"
    and+ pool = opt Arg.int 16 "pool" "N" "Virtine warm-pool size (virtine backend)"
    and+ hi_frac =
      opt Arg.float 0.0 "hi-frac" "F" "Fraction of requests marked high priority"
    and+ bursty =
      flag "bursty"
        "MMPP on/off arrivals (phases of 1.8x / 0.2x the given rate, 5 ms mean \
         dwell) instead of Poisson"
    and+ closed =
      opt Arg.int 0 "closed" "N"
        "Closed loop with $(docv) clients instead of open-loop arrivals"
    and+ think_us = opt Arg.float 500.0 "think-us" "US" "Closed-loop client think time"
    and+ csv =
      opt Arg.(some string) None "csv" "PATH" "Also write the rows as CSV"
    and+ alloc_budget =
      opt Arg.(some float) None "alloc-budget" "W"
        "Print the run-phase allocation profile and fail if any row exceeds \
         $(docv) minor-heap words per completed request"
    and+ seed =
      opt Arg.int 42 "plane-seed" "N"
        "Service-plane seed (arrivals, dispatch, kernel boot)"
    and+ machines =
      opt Arg.int 0 "machines" "N"
        "Serve from a fleet of $(docv) identical knl-like machines behind a \
         balancing front tier over a modeled network (0 = the single-machine \
         plane)"
    and+ hetero =
      opt Arg.(some string) None "hetero" "SPEC"
        "Heterogeneous fleet spec: COUNTxKIND[:WORKERS] joined by '+', e.g. \
         2xknl:4+2xsrv:2 (kinds: knl, srv); implies fleet mode"
    and+ net_lat =
      opt Arg.float 15.0 "net-lat" "US"
        "Fleet link one-way latency (also the sync window)"
    and+ net_bw =
      opt Arg.float 10.0 "net-bw" "GBPS" "Fleet link bandwidth per direction"
    and+ gossip_us =
      opt Arg.float 50.0 "gossip-us" "US"
        "Queue-depth gossip period for the fleet balancer (0 disables)"
    and+ fleet_serial =
      flag "fleet-serial"
        "Advance fleet machines on one domain instead of one domain each \
         (byte-identical results; the smoke test compares both)"
    and+ sample_us =
      opt Arg.float 0.0 "sample-us" "US"
        "Sample a windowed fleet timeline every $(docv) of virtual time at the \
         conservative-window barrier (identical for serial and parallel \
         fleets); 0 disables"
    and+ series_csv =
      opt Arg.(some string) None "series-csv" "PATH"
        "Write the sampled fleet timeline as CSV (needs --sample-us and a \
         single --rps)"
    and+ slo_us =
      opt Arg.float 0.0 "slo-us" "US"
        "End-to-end latency SLO: responses within $(docv) count as good, \
         slower ones and exhausted retries as bad; adds slo_good, slo_total \
         and burn_x1000 columns. 0 disables"
    and+ slo_target =
      opt Arg.float 0.999 "slo-target" "F"
        "Good-fraction target the burn rate is measured against (burn_x1000 = \
         1000 means exactly exhausting the error budget)"
    and+ faults_rate =
      opt Arg.float 0.0 "faults" "RATE"
        "Arm a service-level fault plan at $(docv): worker hangs, response \
         corruption, machine brownouts and link drops (override the kinds \
         with --fault-kinds); 0 disables"
    and+ fault_kinds =
      opt Arg.(some string) None "fault-kinds" "K,K"
        "Comma-separated fault kinds for --faults"
    and+ hedge_frac =
      opt Arg.float 0.0 "hedge-frac" "F"
        "Fleet: hedge still-outstanding requests onto a second machine after \
         $(docv) of --deadline-us; first response wins. 0 disables"
    and+ hedge_budget =
      opt Arg.float 0.1 "hedge-budget" "F"
        "Fleet: global hedge budget as a fraction of arrivals"
    and+ admit =
      flag "admit"
        "Fleet: SLO-aware admission control - shed arrivals whose predicted \
         wait (gossiped depth x EWMA sojourn) already exceeds --deadline-us \
         (sheds count against the SLO)"
    and+ deadline_us =
      opt Arg.float 0.0 "deadline-us" "US"
        "Fleet: per-request deadline driving --hedge-frac and --admit"
    and+ wjsq_aware =
      flag "wjsq-aware"
        "Fleet: weight wjsq by each machine's observed completion rate (a \
         leaky per-window integrator) instead of nominal capacity - the \
         brownout-aware balancer"
    and+ tail =
      opt Arg.(some string) None "tail" "SPEC"
        "Heavy-tailed per-request service demand: pareto:ALPHA:MIN:MAX or \
         lognorm:MEDIAN:SIGMA (microseconds); default every request costs \
         --work-us"
    and+ nic =
      flag "nic"
        "Fleet: deliver front->machine traffic through each machine's \
         simulated NIC (RX descriptor ring + driver) and responses through \
         its TX ring; adds nic_* columns"
    and+ itr_us =
      opt Arg.float 0.0 "itr" "US"
        "NIC interrupt-moderation gap in microseconds (minimum spacing \
         between RX interrupts); 0 = unmoderated. Inert without --nic"
    and+ rx_mode =
      opt Arg.string "hybrid" "rx-mode" "M"
        "NIC receive mode: irq, poll or hybrid (NAPI-style switching). Inert \
         without --nic"
    and+ jobs = jobs_arg
    and+ global_seed = seed_arg in
    Iw_engine.Rng.set_global_seed global_seed;
    (* The single-machine plane samples off the ambient period; the
       fleet takes it explicitly through its config. *)
    Iw_obs.Series.set_period_us sample_us;
    let os =
      match Iw_service.Plane.os_of_string os with
      | Some os -> os
      | None -> die "serve: unknown --os %s (nk or linux)" os
    in
    let policy =
      match Iw_service.Dispatch.of_string policy with
      | Some p -> p
      | None -> die "serve: unknown --policy %s (rr, random, jsq, po2, wjsq)" policy
    in
    let order =
      match Iw_service.Squeue.order_of_string order with
      | Some o -> o
      | None -> die "serve: unknown --order %s (fifo or priority)" order
    in
    let backend =
      match backend with
      | "fiber" -> Iw_service.Plane.Fiber_exec
      | "virtine" ->
          Iw_service.Plane.Virtine_exec
            {
              vconfig =
                {
                  Iw_virtine.Wasp.default with
                  profile = Iw_virtine.Wasp.Bespoke_16;
                  snapshot = true;
                  pooled = true;
                };
              pool;
            }
      | b -> die "serve: unknown --backend %s (fiber or virtine)" b
    in
    let demand =
      match tail with
      | None -> Iw_service.Workload.Dfixed
      | Some s -> parse_tail s
    in
    (try Iw_service.Workload.validate_demand demand
     with Invalid_argument m -> die "serve: %s" m);
    if faults_rate < 0.0 || faults_rate > 1.0 then
      die "serve: --faults must be in [0,1]";
    if itr_us < 0.0 then die "serve: --itr must be >= 0";
    if cap < 1 then die "serve: --cap must be >= 1";
    if hedge_frac < 0.0 || hedge_frac > 1.0 then
      die "serve: --hedge-frac must be in [0,1]";
    if hedge_budget < 0.0 then die "serve: --hedge-budget must be >= 0";
    if slo_target <= 0.0 || slo_target > 1.0 then
      die "serve: --slo-target must be in (0,1]";
    if hi_frac < 0.0 || hi_frac > 1.0 then die "serve: --hi-frac must be in [0,1]";
    List.iter
      (fun (name, v) -> if v < 0.0 then die "serve: --%s must be >= 0" name)
      [
        ("sample-us", sample_us);
        ("gossip-us", gossip_us);
        ("deadline-us", deadline_us);
        ("slo-us", slo_us);
        ("work-us", work_us);
        ("think-us", think_us);
      ];
    if machines < 0 then die "serve: --machines must be >= 0";
    let rx_mode =
      match Iw_kernel.Nic_driver.mode_of_string rx_mode with
      | Some m -> m
      | None -> die "serve: unknown --rx-mode %s (irq, poll or hybrid)" rx_mode
    in
    (* An explicit --fault-kinds arms the plan even at rate 0: kinds
       with recovery machinery that exists only when armed (the NIC's
       lost-IRQ slack scan) can then be exercised — and shown inert —
       without any injection. *)
    let fault_kinds_given = fault_kinds <> None in
    let fault_kinds =
      match fault_kinds with
      | None ->
          Iw_faults.Plan.[ Worker_hang; Req_corrupt; Machine_brownout; Link_drop ]
      | Some s ->
          String.split_on_char ',' s
          |> List.map (fun k ->
                 let k = String.trim k in
                 match Iw_faults.Plan.kind_of_string k with
                 | Some k -> k
                 | None -> die "serve: unknown fault kind %s" k)
    in
    let with_plan f =
      if faults_rate > 0.0 || fault_kinds_given then
        Iw_faults.Plan.with_ambient
          (Iw_faults.Plan.create ~rate:faults_rate ~seed ~kinds:fault_kinds ())
          f
      else f ()
    in
    let duration_us = duration_ms *. 1000.0 in
    let workload_of rps =
      if closed > 0 then
        Iw_service.Workload.Closed { clients = closed; think_us; duration_us }
      else if bursty then
        Iw_service.Workload.Bursty
          {
            rps_on = rps *. 1.8;
            rps_off = rps *. 0.2;
            mean_on_us = 5_000.0;
            mean_off_us = 5_000.0;
            duration_us;
          }
      else Iw_service.Workload.Poisson { rps; duration_us }
    in
    (* A closed loop has no offered rate to sweep: one row. *)
    let rpss = if closed > 0 then [ List.hd rpss ] else rpss in
    if closed = 0 && List.exists (fun r -> r <= 0.0) rpss then
      die "serve: --rps must be > 0";
    let check_workers () = if workers < 1 then die "serve: --workers must be >= 1" in
    let fleet_specs =
      match hetero with
      | Some s -> Some (parse_hetero s)
      | None when machines > 0 ->
          check_workers ();
          Some (List.init machines (fun _ -> Iw_service.Fleet.knl_spec ~workers ()))
      | None -> None
    in
    match fleet_specs with
    | Some specs ->
        if closed > 0 then
          die "serve: --closed is a single-machine mode (fleets are open-loop)";
        if alloc_budget <> None then
          die "serve: --alloc-budget applies to the single-machine plane only";
        if net_bw <= 0.0 then die "serve: --net-bw must be > 0";
        (* The link latency is also the conservative sync window: below
           a microsecond the fleet crawls through one-cycle windows. *)
        if net_lat < 1.0 then die "serve: --net-lat must be >= 1 us";
        let net =
          { Iw_service.Net.default with nc_lat_us = net_lat; nc_gbps = net_bw }
        in
        let cfg rps =
          {
            (Iw_service.Fleet.default ()) with
            Iw_service.Fleet.fc_machines = Array.of_list specs;
            fc_workload = workload_of rps;
            fc_policy = policy;
            fc_order = order;
            fc_queue_cap = cap;
            fc_backend = backend;
            fc_work_us = work_us;
            fc_hi_frac = hi_frac;
            fc_net = net;
            fc_gossip_us = gossip_us;
            fc_sample_us = sample_us;
            fc_slo_us = slo_us;
            fc_slo_target = slo_target;
            fc_hedge_frac = hedge_frac;
            fc_hedge_budget = hedge_budget;
            fc_admit = admit;
            fc_deadline_us = deadline_us;
            fc_bw_wjsq = wjsq_aware;
            fc_demand = demand;
            fc_nic = nic;
            fc_nic_mode = rx_mode;
            fc_itr_us = itr_us;
            fc_seed = seed;
          }
        in
        (* Fleet runs own their parallelism (one domain per machine),
           so the rate sweep itself stays sequential. *)
        let parallel = if fleet_serial then Some false else None in
        let reports =
          with_plan (fun () ->
              List.map (fun rps -> Iw_service.Fleet.run ?parallel (cfg rps)) rpss)
        in
        let open Iw_service.Fleet in
        let p pct r = percentile_us r r.fr_total pct in
        (* Optional groups appear only with the flag that turns them on,
           so default runs (and the fleet smoke's par-vs-serial cmp)
           keep their shape. *)
        let cols =
          [
            icol "machines" (fun r -> r.fr_machines);
            ("policy", fun r -> r.fr_policy);
            ("gossip_us", fun _ -> Printf.sprintf "%g" gossip_us);
            fcol "offered_rps" "%.0f" (fun r -> r.fr_offered_rps);
            icol "arrivals" (fun r -> r.fr_arrivals);
            icol "completed" (fun r -> r.fr_completed);
            icol "failed" (fun r -> r.fr_failed);
            icol "retries" (fun r -> r.fr_retries);
            icol "nacks" (fun r -> r.fr_nacks);
            icol "drops" (fun r -> r.fr_net_drops);
            icol "ejects" (fun r -> r.fr_ejects);
            fcol "thru_rps" "%.0f" (fun r -> r.fr_throughput_rps);
            fcol "util" "%.2f" (fun r -> r.fr_utilization);
            fcol "p50_us" "%.1f" (p 50.0);
            fcol "p99_us" "%.1f" (p 99.0);
            fcol "p99.9_us" "%.1f" (p 99.9);
          ]
          @ on (slo_us > 0.0)
              [
                icol "slo_good" (fun r -> r.fr_slo_good);
                icol "slo_total" (fun r -> r.fr_slo_total);
                icol "burn_x1000" (fun r ->
                    int_of_float
                      (burn ~target:slo_target ~good:r.fr_slo_good
                         ~total:r.fr_slo_total
                      *. 1000.0));
              ]
          @ on (faults_rate > 0.0)
              [
                icol "steals" (fun r -> r.fr_steals);
                icol "reexecs" (fun r -> r.fr_corrupt_retries);
                icol "brownouts" (fun r -> r.fr_brownouts);
              ]
          @ on (hedge_frac > 0.0)
              [
                icol "hedges" (fun r -> r.fr_hedges);
                icol "hedge_wins" (fun r -> r.fr_hedge_wins);
                icol "hedge_late" (fun r -> r.fr_hedge_cancels);
              ]
          @ on admit [ icol "adm_shed" (fun r -> r.fr_admission_shed) ]
          @ on nic
              [
                icol "nic_rx" (fun r -> r.fr_nic_rx);
                icol "nic_drops" (fun r -> r.fr_nic_drops);
                icol "nic_irqs" (fun r -> r.fr_nic_irqs);
                icol "nic_polls" (fun r -> r.fr_nic_polls);
                icol "nic_wasted_kc" (fun r -> r.fr_nic_wasted_cycles / 1000);
                icol "nic_switches" (fun r -> r.fr_nic_switches);
                icol "nic_recovers" (fun r -> r.fr_nic_recovers);
              ]
        in
        (* A single fleet row gets the per-machine breakdown. *)
        let detail = function
          | [ r ] when csv = None ->
              print_newline ();
              print_string
                (Interweave.Table.render
                   (Interweave.Machine.Fleet.counter_table
                      (Array.to_list
                         (Array.map2 (fun n c -> (n, c)) r.fr_m_names r.fr_m_counters))))
          | _ -> ()
        in
        emit ~csv ~series_csv ~detail ~series:(fun r -> r.fr_series) cols reports
    | None ->
        if nic then die "serve: --nic needs a fleet (--machines or --hetero)";
        check_workers ();
        let plat = Iw_hw.Platform.knl in
        (* The ambient fault plan is domain-local, so a faulted sweep runs
           its rows on the coordinator. *)
        let jobs = if faults_rate > 0.0 then 1 else jobs in
        let reports =
          with_plan (fun () ->
              Interweave.Driver.parallel_map ~jobs
                (fun rps ->
                  Iw_service.Plane.run
                    {
                      os;
                      plat;
                      workers;
                      workload = workload_of rps;
                      policy;
                      order;
                      queue_cap = cap;
                      backend;
                      work_us;
                      hi_frac;
                      demand;
                      seed;
                    })
                rpss)
        in
        let open Iw_service.Plane in
        let p pct r = percentile_us r r.rep_total pct in
        let cols =
          [
            ("os", fun r -> r.rep_os);
            ("policy", fun r -> r.rep_policy);
            ("backend", fun r -> r.rep_backend);
            fcol "offered_rps" "%.0f" (fun r -> r.rep_offered_rps);
            icol "arrivals" (fun r -> r.rep_arrivals);
            icol "shed" (fun r -> r.rep_shed);
            fcol "thru_rps" "%.0f" (fun r -> r.rep_throughput_rps);
            fcol "util" "%.2f" (fun r -> r.rep_utilization);
            fcol "q_mean_us" "%.1f" (fun r -> mean_us r r.rep_queue);
            fcol "p50_us" "%.1f" (p 50.0);
            fcol "p90_us" "%.1f" (p 90.0);
            fcol "p99_us" "%.1f" (p 99.0);
            fcol "p99.9_us" "%.1f" (p 99.9);
            (* coordinated-omission-corrected p99: measured from each
               request's intended (drawn) send time; equals raw p99 when
               the generator never falls behind *)
            fcol "p99c_us" "%.1f" (fun r -> percentile_us r r.rep_total_corrected 99.0);
          ]
          @ on (faults_rate > 0.0) [ icol "steals" (fun r -> r.rep_steals) ]
        in
        emit ~csv ~series_csv ~series:(fun r -> r.rep_series) cols reports;
        Option.iter
          (fun budget ->
            (* The alloc-smoke gate: steady-state request processing must
               stay inside the committed minor-words-per-request budget
               (warmup — arena growth, stream setup — is amortized over
               the run, hence a budget slightly above the asymptotic 0). *)
            let worst =
              List.fold_left
                (fun acc r ->
                  let per_req =
                    if r.rep_completed > 0 then
                      r.rep_run_minor_words /. float_of_int r.rep_completed
                    else r.rep_run_minor_words
                  in
                  Printf.printf
                    "alloc: %s/%s %.0f rps: %.0f minor words / %d requests = \
                     %.4f w/req (major %.0f, arena cap %d)\n"
                    r.rep_backend r.rep_policy r.rep_offered_rps
                    r.rep_run_minor_words r.rep_completed per_req
                    r.rep_run_major_words r.rep_arena_capacity;
                  Float.max acc per_req)
                0.0 reports
            in
            if worst > budget then
              die "serve: allocation budget exceeded: %.4f > %.4f minor words/request"
                worst budget;
            Printf.printf "alloc budget ok: worst %.4f <= %.4f minor words/request\n"
              worst budget)
          alloc_budget
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive open- or closed-loop load through the service plane (queues, \
          dispatch policies, fiber/virtine execution) and report throughput \
          and tail latency per offered rate")
    term

let () =
  let doc =
    "Reproduction of 'The Case for an Interwoven Parallel Hardware/Software \
     Stack' (SCWS/ROSS 2021)"
  in
  let info = Cmd.info "interweave" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            csv_cmd;
            stacks_cmd;
            trace_cmd;
            profile_cmd;
            golden_cmd;
            sweep_cmd;
            faults_cmd;
            serve_cmd;
          ]))
