(* Digests of the simulated results of every input variant under the
   default seed ({!Harness.default_seed}).  A change that only makes
   the simulator faster leaves them equal; any other change shows as
   failed iterations until these are re-recorded with
   [python3 simbench/run.py --digests]. *)

let recorded =
  [
    (("fleet-nic", 0), "6c6b2b99d1063ad93db519b2be196f23");
    (("fleet-nic", 1), "9c3074a7cc26e3bfd44c328df4346d50");
    (("fleet-nic", 2), "231629187de2141577ff65b9f9c46707");
    (("fleet-nic", 3), "d8a9b2a6382c6f6dcf9da875cad043f3");
    (("coherence-mesi", 0), "0275ae443f364fe2afc42880d9ba1232");
    (("coherence-mesi", 1), "ceb0ca0c9650f48a46c2535bf4a95bbf");
    (("coherence-mesi", 2), "50a8bce17b7ec19467b31ea8982be86e");
    (("coherence-mesi", 3), "633c25b2bdf5050abb3056cda2e26300");
    (("heartbeat-omp", 0), "84479c6c1ed0b5f76fb18894104e3793");
    (("heartbeat-omp", 1), "36a519f4d7f8e1e5dd7cb913a972019c");
    (("heartbeat-omp", 2), "4d950220f14ab76d43daf3ae62adbc3f");
    (("heartbeat-omp", 3), "e330de8e5365c29585a2823951435940");
  ]

let find workload variant = List.assoc_opt (workload, variant) recorded
