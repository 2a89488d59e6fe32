(** The experiment registry: one entry per table/figure reproduced
    from the paper (E1..E12) plus ablations of the design choices
    DESIGN.md calls out (A1..A4).

    Every experiment is deterministic (fixed seeds) and returns
    rendered {!Table.t}s; the benchmark harness and the CLI both drive
    this registry. *)

type experiment = {
  id : string;  (** "E1".."E12", "A1".."A4" *)
  title : string;
  paper_claim : string;  (** What the paper reports, for comparison. *)
  tables : unit -> Table.t list;  (** Run it. *)
}

val all : unit -> experiment list
(** In id order. *)

val find : string -> experiment
(** @raise Not_found *)

val run_to_string : experiment -> string
(** Header + every table, rendered. *)

type alloc = {
  alloc_minor_words : float;
      (** OCaml minor-heap words allocated while the experiment ran,
          exactly, by [Gc.minor_words] deltas: the current domain
          only, so words allocated by domains the run spawns (a
          parallel fleet's machines) are not included. *)
  alloc_major_words : float;
      (** Major-heap words over the same window: direct large-block
          allocation plus promotions, so less stable run-to-run than
          the minor figure. *)
}

val run_with_counters :
  ?trace:Iw_obs.Trace.t ->
  experiment ->
  string * (string * int) list * alloc
(** {!run_to_string} under a collecting ambient context: the rendered
    output plus machine-wide counter totals summed over every
    component the run created, plus the GC allocation profile of the
    run — the quantity the zero-allocation hot path is judged by.
    [trace] defaults to the null sink, so counters are gathered with
    zero tracing cost unless a ring is passed. *)
