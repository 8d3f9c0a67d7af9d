(* The repository benchmark's measuring program.

     bench.exe --workload fig6|server|server-domains --seed N
               --seconds S --trace 0|1 [--spans FILE]

   Sets the workload up several times (reporting the median as
   [setup_s]), then runs measured passes until [S] seconds are spent and
   reports medians.  With [--trace 1] half the time goes to untraced
   passes and half to passes through the [Traced] shim; the traced passes
   must reproduce the untraced ones bit for bit on the simulator, and they
   supply the per-layer metrics.  Every named metric is printed with its
   unit; the last line of output is one JSON object. *)

open Common

let setup_repeats = 5

(* The per-layer metrics a traced run reports, with their units, in the
   order of BENCHMARK.json's [per_layer]. *)
let per_layer =
  [ ("sim.suspensions", "count/op"); ("sim.sched_decisions", "count/op");
    ("sim.heap_ops", "count/op"); ("sim.idle_parks", "count/op");
    ("sim.idle_polls", "count/op"); ("sim.coalesced_charges", "count/op");
    ("sim.coalesced_ratio", "ratio");
    ("sim.makespan_cycles", "cycles"); ("bus.busy_cycles", "cycles");
    ("bus.remote_bytes", "bytes"); ("link.busy_cycles", "cycles");
    ("cache.invalidations", "count"); ("gc.pause_cycles", "cycles");
    ("gc.wait_cycles", "cycles"); ("gc.major_count", "count");
    ("gc.minor_count", "count");
    ("proc.busy_s", "s"); ("proc.idle_s", "s"); ("proc.gc_wait_s", "s");
    ("proc.queue_wait_s", "s"); ("proc.lock_spins", "count");
    ("proc.alloc_words", "words"); ("host.gc_count", "count");
    ("sched.forks", "count"); ("sched.switches", "count");
    ("sched.steal_attempts", "count"); ("sched.steal_hits", "count");
    ("sched.steal_hit_ratio", "ratio"); ("sched.queue_depth", "count");
    ("lock.calls", "count"); ("lock.try_fails", "count");
    ("lock.wait_cycles", "ticks"); ("lock.locked_cycles", "ticks");
    ("lock.spins", "count"); ("lock.top_share", "ratio");
    ("lock.top_index", "index");
    ("cml.blocks", "count"); ("cml.wakeups", "count"); ("sync.blocks", "count");
    ("sync.wakeups", "count"); ("select.blocks", "count");
    ("work.calls.step", "count"); ("work.calls.charge", "count");
    ("work.calls.alloc", "count"); ("work.calls.traffic", "count");
    ("work.calls.write_line", "count"); ("work.calls.idle_until", "count");
    ("work.calls.poll", "count"); ("work.idle_until_cycles", "ticks");
    ("work.step_stall_cycles", "ticks"); ("host_s", "s");
    ("trace.overhead_ratio", "ratio") ]

let per_op =
  [ "sim.suspensions"; "sim.sched_decisions"; "sim.heap_ops"; "sim.idle_parks";
    "sim.idle_polls"; "sim.coalesced_charges" ]

(* ---- arguments ---------------------------------------------------------- *)

let arg name =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let usage () =
  prerr_endline
    "usage: bench.exe --workload fig6|server|server-domains [--seed N] \
     [--seconds S] [--trace 0|1] [--spans FILE]";
  exit 2

let int_arg name ~default =
  match arg name with
  | None -> default
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> usage ())

(* ---- workloads ---------------------------------------------------------- *)

type workload = {
  simulated : bool;
  default_seed : int;
  setup : seed:int -> (spans:Spans.t option -> pass) * (unit -> int * int);
}

let workload = function
  | "fig6" ->
      { simulated = true; default_seed = 42;
        setup =
          (fun ~seed ->
            let inputs = Wl_fig6.setup ~seed in
            (Wl_fig6.pass inputs, fun () -> (0, 0))) }
  | ("server" | "server-domains") as w ->
      let domains = w = "server-domains" in
      { simulated = not domains; default_seed = 1993;
        setup =
          (fun ~seed ->
            let inputs = Wl_server.setup ~seed ~domains in
            ( (if domains then Wl_server.domains_pass inputs else Wl_server.sim_pass inputs),
              fun () -> Wl_server.audit inputs ~domains )) }
  | _ -> usage ()

(* ---- measuring ---------------------------------------------------------- *)

let host_collections () =
  let s = Gc.quick_stat () in
  s.Gc.minor_collections + s.Gc.major_collections

(* Passes until [budget] seconds since [since] are spent: another pass is
   only started if the last one's duration still fits. *)
let rec more_passes ~since ~budget ~last run =
  if wall () -. since +. last > budget then []
  else
    let p, dt = timed run in
    (p, dt) :: more_passes ~since ~budget ~last:dt run

let check_repeat ~what (reference : pass) (ps : (pass * float) list) =
  List.iter
    (fun ((p : pass), _) ->
      if p.signature <> reference.signature then
        bench_error "%s differs from the first untraced pass" what)
    ps

let top_lock lock_time =
  let total = Hashtbl.fold (fun _ v acc -> acc + v) lock_time 0 in
  let idx, v =
    Hashtbl.fold
      (fun i v (bi, bv) -> if v > bv || (v = bv && i < bi) then (i, v) else (bi, bv))
      lock_time (-1, 0)
  in
  if total = 0 then (0., -1.) else (float_of_int v /. float_of_int total, float_of_int idx)

let layer_metrics (p : pass) ~gc_count ~host_s ~overhead =
  let t = p.layers in
  let g = Tally.get t in
  let ratio a b = if b = 0. then 0. else a /. b in
  let share, idx = top_lock p.lock_time in
  Tally.set t "sim.coalesced_ratio"
    (ratio (g "sim.coalesced_charges") (g "sim.coalesced_charges" +. g "sim.suspensions"));
  Tally.set t "sched.steal_hit_ratio" (ratio (g "sched.steal_hits") (g "sched.steal_attempts"));
  Tally.set t "lock.top_share" share;
  Tally.set t "lock.top_index" idx;
  Tally.set t "host.gc_count" (float_of_int gc_count);
  Tally.set t "host_s" host_s;
  Tally.set t "trace.overhead_ratio" overhead;
  List.iter (fun k -> Tally.set t k (g k /. float_of_int p.ops)) per_op;
  List.map (fun (k, unit) -> (k, unit, Tally.get t k)) per_layer

let main () =
  let name = match arg "--workload" with Some w -> w | None -> usage () in
  let wl = workload name in
  let seed = int_arg "--seed" ~default:wl.default_seed in
  let seconds = float_of_int (max 1 (int_arg "--seconds" ~default:10)) in
  let trace = int_arg "--trace" ~default:0 = 1 in
  let store = Spans.create ~capacity:100_000 in
  (* set-up, several times *)
  let setups =
    List.init setup_repeats (fun i ->
        timed (fun () ->
            Spans.host_span store ~name:"setup" ~tag:(string_of_int i) (fun () ->
                wl.setup ~seed)))
  in
  let setup_s = median (List.map snd setups) in
  let pass, audit = fst (List.hd (List.rev setups)) in
  (* untraced passes *)
  let budget = if trace then seconds /. 2. else seconds in
  let since = wall () and gc0 = host_collections () in
  let first, first_dt = timed (fun () -> pass ~spans:None) in
  let gc_count = host_collections () - gc0 in
  (* Peak heap of set-up plus one pass: a fixed amount of work, whatever
     number of passes the time budget then allows. *)
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let untraced =
    (first, first_dt)
    :: more_passes ~since ~budget ~last:first_dt (fun () -> pass ~spans:None)
  in
  if wl.simulated then check_repeat ~what:"a repeated untraced pass" first untraced;
  let host_s = median (List.map snd untraced) in
  let med f = median (List.map (fun ((p : pass), _) -> f p) untraced) in
  (* traced passes *)
  let traced =
    if not trace then []
    else
      let since = wall () in
      let traced_pass () = pass ~spans:(Some store) in
      let p, dt = timed traced_pass in
      (p, dt) :: more_passes ~since ~budget ~last:dt traced_pass
  in
  if wl.simulated then check_repeat ~what:"a traced pass" first traced;
  let audit_ops, audit_failed = audit () in
  let all = untraced @ traced in
  let attempted = audit_ops + List.fold_left (fun a ((p : pass), _) -> a + p.ops) 0 all in
  let failed = audit_failed + List.fold_left (fun a ((p : pass), _) -> a + p.failed) 0 all in
  let clock = if wl.simulated then "virtual" else "host" in
  Printf.printf "workload %s seed %d: %d untraced + %d traced passes, %d ops, %d failed\n"
    name seed (List.length untraced) (List.length traced) attempted failed;
  Printf.printf "metric ops = %d count\nmetric ops_failed = %d count\n" attempted failed;
  let show clock (k, unit, v) = Printf.printf "metric %s = %.6g %s (%s)\n" k v unit clock in
  let host =
    [ ("setup_s", "s", setup_s); ("host_heap_mb", "MB", heap_mb); ("host_s", "s", host_s) ]
  and gated =
    [ ("lat_ms", "ms", med (fun p -> p.lat_ms)); ("tail_ms", "ms", med (fun p -> p.tail_ms));
      ("tput_per_s", "1/s", med (fun p -> p.tput_per_s)) ]
  and headline =
    List.mapi
      (fun i (k, unit, _) ->
        (k, unit, med (fun p -> let _, _, v = List.nth p.headline i in v)))
      first.headline
  in
  List.iter (show "host") host;
  List.iter (show clock) (headline @ gated);
  (* [host_s] drifts by up to a quarter between runs on a shared host, so
     it is reported with the per-layer metrics rather than gated. *)
  let e2e = List.filter (fun (k, _, _) -> k <> "host_s") host @ gated in
  let metrics =
    match traced with
    | [] -> e2e
    | (tp, _) :: _ ->
        let overhead = median (List.map snd traced) /. host_s in
        let layers = layer_metrics tp ~gc_count ~host_s ~overhead in
        List.iter (show "layer") layers;
        (match arg "--spans" with Some path -> Spans.write store path | None -> ());
        layers
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

let () =
  try main () with
  | Bench_error msg ->
      prerr_endline ("benchmark error: " ^ msg);
      exit 3
