(* Golden-value generator for the simulator's determinism-equivalence tests.

   Prints, for every bench-suite workload at procs in {1,4,16} on the
   16-proc Sequent model, the virtual-time invariants that any scheduler
   change must preserve bit-for-bit (makespan cycles, collections, bus
   bytes) plus host-side cost counters (effect-handler suspensions,
   scheduler decisions, wall-clock host seconds per cell) that changes
   are allowed — and expected — to improve.

   Usage: dune exec bench/sim_golden.exe [-- --jobs N --sched P --gc M]
   --jobs fans the cells across host domains; each cell runs on a private
   machine instance and lines print in grid order, so the GOLDEN values
   are identical for every N.  --sched selects the scheduling policy
   (default distributed — the policy the test table pins) and --gc the GC
   cost model (default stw — likewise the pinned one); under any (policy,
   collector) pair the output must stay identical across --jobs values,
   which is what CI's ws-policy and minor_pp jobs-diff legs check.
   Paste the GOLDEN lines into the table in test/test_sim.ml when adding a
   workload; never update them to absorb a virtual-time change without
   understanding why the change is correct. *)

let golden_cell ~sched ~gc (name, procs) =
  let module Seq16 =
    Sim.Mp_sim.Int (struct
        let config =
          Sim.Sim_config.with_gc
            (Sim.Sim_config.sequent ~procs:16
               ~sched:(Mpthreads.Sched_policy.to_string sched) ())
            gc
      end)
      ()
  in
  let module B = Workloads.Bench_suite.Make (Seq16) in
  Mp.Engine.reset_suspensions ();
  let t0 = Unix.gettimeofday () in
  let witness = B.run_named ~sched name ~procs in
  let host = Unix.gettimeofday () -. t0 in
  Printf.sprintf
    "GOLDEN %-8s sched=%-12s gcm=%-9s procs=%-2d makespan=%-12d gc=%-3d \
     bus=%-12d witness=%d susp=%d decisions=%d host=%.3fs"
    name
    (Mpthreads.Sched_policy.to_string sched)
    (Sim.Gc_model.to_string gc)
    procs
    (Seq16.Machine.makespan_cycles ())
    (Seq16.Machine.gc_collections ())
    (Seq16.Machine.bus_bytes ())
    witness
    (Mp.Engine.suspensions ())
    (Seq16.Machine.sched_decisions ())
    host

let () =
  let jobs = ref None and sched = ref None and gc = ref None in
  Arg.parse
    [
      ( "--jobs",
        Arg.Int (fun n -> jobs := Some n),
        "N host domains for the cells (default 1)" );
      ( "--sched",
        Arg.String (fun p -> sched := Some p),
        "POLICY scheduling policy (default distributed)" );
      ( "--gc",
        Arg.String (fun m -> gc := Some m),
        "MODEL GC cost model (default stw)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sim_golden.exe [--jobs N] [--sched POLICY] [--gc MODEL]";
  let jobs = Exec.Job_pool.resolve_jobs !jobs in
  let sched = Mpthreads.Sched_policy.resolve ?explicit:!sched () in
  let gc = Sim.Gc_model.resolve ?explicit:!gc () in
  let names =
    let module B0 =
      Workloads.Bench_suite.Make
        (Sim.Mp_sim.Int
           (struct
             let config = Sim.Sim_config.sequent ~procs:1 ()
           end)
           ())
    in
    B0.names
  in
  let cells =
    List.concat_map
      (fun name -> List.map (fun procs -> (name, procs)) [ 1; 4; 16 ])
      names
  in
  List.iter print_endline
    (Exec.Job_pool.map ~jobs (golden_cell ~sched ~gc) cells)
