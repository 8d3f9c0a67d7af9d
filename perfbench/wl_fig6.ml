(* fig6: the paper's Figure 6 as a closed batch.  The five Figure-6
   programs plus [seq] and [fib], at their default sizes, on the
   16-processor Sequent model with the golden-pinned defaults
   (distributed run queue, stop-the-world GC), at every proc count from 1
   to 16.  [seq]'s baseline is p copies on one proc, as in
   [Report.Experiments]. *)

open Common

let config = Sim.Sim_config.sequent ~procs:16 ()
let policy = Mpthreads.Sched_policy.of_string_exn config.Sim.Sim_config.sched
let programs = [ "allpairs"; "mst"; "abisort"; "simple"; "mm"; "seq"; "fib" ]
let max_procs = 16

type run = { prog : string; procs : int; copies : int }

(* Every program run of a pass, in order.  [seq] at p procs needs its own
   p-copies-on-one-proc baseline. *)
let runs =
  List.concat_map
    (fun procs ->
      List.concat_map
        (fun prog ->
          if prog <> "seq" then [ { prog; procs; copies = 0 } ]
          else if procs = 1 then [ { prog; procs; copies = 1 } ]
          else [ { prog; procs = 1; copies = procs }; { prog; procs; copies = procs } ])
        programs)
    (List.init max_procs (fun i -> i + 1))

type inputs = { seed : int; refs : (string * int) list }

(* Sequential reference results, computed by the programs' own
   sequential kernels from the same seeded inputs. *)
let setup ~seed =
  let open Workloads in
  let sorted =
    let rng = Random.State.make [| seed; 4096 |] in
    let a = Array.init 4096 (fun _ -> Random.State.int rng 1_000_000) in
    Array.sort compare a;
    Array.fold_left (fun acc x -> (acc * 31) + x) 7 a
  in
  let rec fib k = if k < 2 then k else fib (k - 1) + fib (k - 2) in
  let hydro = Hydro.create ~n:100 ~seed in
  ignore (Hydro.step_seq hydro);
  {
    seed;
    refs =
      [
        ("allpairs", Graph.checksum (Graph.floyd_warshall (Graph.random ~n:75 ~seed ())));
        ("mst", Euclid.prim_mst (Euclid.random_points ~n:200 ~seed));
        ("abisort", sorted);
        ("simple", Hydro.checksum hydro);
        ("mm", Matrix.checksum
                 (Matrix.multiply (Matrix.random ~n:100 ~seed)
                    (Matrix.random ~n:100 ~seed:(seed + 1))));
        ("fib", fib 24);
      ];
  }

let exec (module P : Mp.Mp_intf.PLATFORM_INT) ~seed r =
  let module B = Workloads.Bench_suite.Make (P) in
  let procs = r.procs and sched = policy in
  match r.prog with
  | "allpairs" -> B.allpairs ~procs ~sched ~seed ()
  | "mst" -> B.mst ~procs ~sched ~seed ()
  | "abisort" -> B.abisort ~procs ~sched ~seed ()
  | "simple" -> B.simple ~procs ~sched ~seed ()
  | "mm" -> B.mm ~procs ~sched ~seed ()
  | "seq" -> B.seq ~procs ~copies:r.copies ~sched ()
  | _ -> B.fib ~procs ~sched ()

let expected inputs r =
  if r.prog = "seq" then r.copies else List.assoc r.prog inputs.refs

let tag r =
  if r.prog = "seq" then Printf.sprintf "seq/p%d/c%d" r.procs r.copies
  else Printf.sprintf "%s/p%d" r.prog r.procs

(* One program run on a fresh machine; returns its makespan in cycles,
   whether its witness matched, and its bit-exact signature. *)
let run_one inputs ~spans ~layers ~lock_time r =
  let (module S) = sim_instance config in
  let go (module P : Mp.Mp_intf.PLATFORM_INT) =
    match exec (module P) ~seed:inputs.seed r with
    | w -> (w = expected inputs r, string_of_int w)
    | exception e -> (false, Printexc.to_string e)
  in
  let ok, witness =
    on_platform ~spans ~layers ~lock_time ~cost:(sim_cost config) ~clock:"cycles"
      ~cell:(tag r) (module S) go
  in
  tally_sim layers (module S);
  tally_platform layers (module S);
  (S.Machine.makespan_cycles (), ok, tag r ^ "=" ^ witness ^ ";" ^ sim_signature (module S))

let ms cycles = 1000. *. Sim.Sim_config.cycles_to_seconds config cycles

let pass inputs ~spans =
  let layers = Tally.create () and lock_time = Hashtbl.create 64 in
  let results =
    List.map (fun r -> (r, run_one inputs ~spans ~layers ~lock_time r)) runs
  in
  span spans ~name:"reduce" ~tag:"fig6" (fun () ->
      let makespan prog ~procs ~copies =
        List.find_map
          (fun (r, (m, _, _)) ->
            if r.prog = prog && r.procs = procs && (prog <> "seq" || r.copies = copies)
            then Some m else None)
          results
        |> Option.get
      in
      let at16 prog = makespan prog ~procs:max_procs ~copies:max_procs in
      let speedups =
        List.map
          (fun prog ->
            float_of_int (makespan prog ~procs:1 ~copies:max_procs)
            /. float_of_int (at16 prog))
          programs
      in
      let m16 = List.map (fun p -> ms (at16 p)) programs in
      let batch_ms = List.fold_left ( +. ) 0. m16 in
      {
        ops = List.length results;
        failed = List.length (List.filter (fun (_, (_, ok, _)) -> not ok) results);
        signature = String.concat "|" (List.map (fun (_, (_, _, s)) -> s) results);
        lat_ms = geomean m16;
        tail_ms = batch_ms;
        tput_per_s = float_of_int (List.length programs) /. (batch_ms /. 1000.);
        headline =
          [ ("speedup16_geomean", "x", geomean speedups);
            ("speedup16_min", "x", List.fold_left Float.min infinity speedups) ];
        layers;
        lock_time;
      })
