(* Shared plumbing of the benchmark: timing, medians, metric tables and
   the simulator's per-layer read-out. *)

exception Bench_error of string
(** A broken benchmark invariant (traced and untraced runs disagree, a
    deterministic pass did not repeat).  Not a metric value: the run
    stops without a result. *)

let bench_error fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt
let wall () = Unix.gettimeofday ()

let timed f =
  let t0 = wall () in
  let v = f () in
  (v, wall () -. t0)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Quantile read off a log-bucketed histogram, interpolated linearly by
   rank inside the bucket that holds it (the histogram keeps counts per
   bucket, not values).  Finer than {!Obs.Histogram.quantile}, which
   returns the bucket's upper bound, so a small shift in the distribution
   shows as a small shift in the figure instead of a jump of one bucket
   (6%) or none. *)
let bucket_width lo =
  if lo < Obs.Histogram.sub then 1
  else
    let rec msb v acc = if v = 0 then acc - 1 else msb (v lsr 1) (acc + 1) in
    1 lsl (msb lo 0 - 4)

let quantile h q =
  let n = Obs.Histogram.count h in
  if n = 0 then 0.
  else
    let rank = q *. float_of_int n in
    let rec go cum = function
      | [] -> float_of_int (Obs.Histogram.max_value h)
      | (lo, c) :: rest ->
          let cum' = cum + c in
          if float_of_int cum' >= rank then
            let frac = (rank -. float_of_int cum) /. float_of_int c in
            let v = float_of_int lo +. (frac *. float_of_int (bucket_width lo)) in
            Float.min (float_of_int (Obs.Histogram.max_value h))
              (Float.max (float_of_int (Obs.Histogram.min_value h)) v)
          else go cum' rest
    in
    go 0 (Obs.Histogram.nonzero_buckets h)

let histogram_digest h =
  Obs.Histogram.nonzero_buckets h
  |> List.map (fun (lo, c) -> Printf.sprintf "%d:%d" lo c)
  |> String.concat ","
  |> Digest.string |> Digest.to_hex

(* ---- metric tables ---------------------------------------------------- *)

(* Per-layer totals, summed over the cells of a pass.  Keys are metric
   names; [get] of a key nothing added to is 0. *)
module Tally = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add t k v =
    Hashtbl.replace t k (v +. Option.value (Hashtbl.find_opt t k) ~default:0.)

  let addi t k v = add t k (float_of_int v)

  let max_ t k v =
    Hashtbl.replace t k
      (Float.max v (Option.value (Hashtbl.find_opt t k) ~default:0.))

  let get t k = Option.value (Hashtbl.find_opt t k) ~default:0.
  let set t k v = Hashtbl.replace t k v
end

(* ---- simulator read-out ----------------------------------------------- *)

(* The part of [Sim.Mp_sim.Int]'s interface the benchmark reads. *)
module type SIM = sig
  include Mp.Mp_intf.PLATFORM_INT

  module Machine : sig
    val config : Sim.Sim_config.t
    val makespan_cycles : unit -> int
    val sched_decisions : unit -> int
    val suspensions : unit -> int
    val heap_ops : unit -> int
    val coalesced_charges : unit -> int
    val idle_parks : unit -> int
    val idle_polls : unit -> int
    val gc_cycles : unit -> int
    val gc_minor_collections : unit -> int
    val gc_major_collections : unit -> int
    val gc_wait_cycles : unit -> int
    val bus_bytes : unit -> int
    val remote_bytes : unit -> int
    val invalidations : unit -> int
    val bus_busy_cycles : unit -> int
    val link_busy_cycles : unit -> int
  end
end

let sim_instance config : (module SIM) =
  (module Sim.Mp_sim.Int (struct
    let config = config
  end)
  ())

(* Nominal [Work.step] cost on a simulated machine: the instructions at
   [cpi] plus the allocation's own CPU cost, with no bus or GC stall. *)
let sim_cost (c : Sim.Sim_config.t) : (module Traced.COST) =
  (module struct
    let step_cycles ~instrs ~alloc_words =
      int_of_float (float_of_int instrs *. c.Sim.Sim_config.cpi)
      + int_of_float (c.Sim.Sim_config.alloc_cycles_per_word *. float_of_int alloc_words)
  end)

(* Everything a simulated cell must reproduce bit for bit: its virtual
   results and the simulator's exact host-side counts.  Compared between
   repeated passes and between the traced and untraced runs. *)
let sim_signature (module S : SIM) =
  let m = S.Machine.(
    [ makespan_cycles (); gc_cycles (); gc_wait_cycles ();
      gc_major_collections (); gc_minor_collections (); bus_bytes ();
      bus_busy_cycles (); remote_bytes (); link_busy_cycles ();
      invalidations (); suspensions (); sched_decisions (); heap_ops ();
      coalesced_charges (); idle_parks (); idle_polls () ])
  in
  String.concat "," (List.map string_of_int m)

let counter (module P : Mp.Mp_intf.PLATFORM_INT) name =
  match Obs.Counters.find P.Telemetry.counters name with
  | Some c -> Obs.Counters.get c
  | None -> 0

(* Per-layer read-out shared by every backend: [Stats] summed over procs
   and the client layers' telemetry counters.  Called once per cell,
   after its run. *)
let tally_platform t (module P : Mp.Mp_intf.PLATFORM_INT) =
  let st = P.stats () in
  Array.iter
    (fun (p : Mp.Stats.proc_stats) ->
      Tally.add t "proc.busy_s" p.busy;
      Tally.add t "proc.idle_s" p.idle;
      Tally.add t "proc.gc_wait_s" p.gc_wait;
      Tally.add t "proc.queue_wait_s" p.queue_wait;
      Tally.addi t "proc.lock_spins" p.lock_spins;
      Tally.addi t "proc.alloc_words" p.alloc_words)
    st.Mp.Stats.per_proc;
  let c = counter (module P) in
  List.iter
    (fun k -> Tally.addi t k (c k))
    [ "sched.forks"; "sched.switches"; "sched.steal_attempts";
      "sched.steal_hits"; "cml.blocks"; "cml.wakeups"; "sync.blocks";
      "sync.wakeups"; "select.blocks"; "lock.spins" ];
  Tally.max_ t "sched.queue_depth" (float_of_int (c "sched.queue_depth"))

let tally_sim t (module S : SIM) =
  let m = S.Machine.(
    [ ("sim.suspensions", suspensions ()); ("sim.sched_decisions", sched_decisions ());
      ("sim.heap_ops", heap_ops ()); ("sim.idle_parks", idle_parks ());
      ("sim.idle_polls", idle_polls ()); ("sim.coalesced_charges", coalesced_charges ());
      ("sim.makespan_cycles", makespan_cycles ()); ("bus.busy_cycles", bus_busy_cycles ());
      ("bus.remote_bytes", remote_bytes ()); ("link.busy_cycles", link_busy_cycles ());
      ("cache.invalidations", invalidations ()); ("gc.pause_cycles", gc_cycles ());
      ("gc.wait_cycles", gc_wait_cycles ()); ("gc.major_count", gc_major_collections ());
      ("gc.minor_count", gc_minor_collections ()) ])
  in
  List.iter (fun (k, v) -> Tally.addi t k v) m

(* Fold one traced cell's shim totals into the pass's tally; lock time
   per instance is merged across cells by creation index. *)
let tally_shim t lock_time (tot : Traced.totals) =
  Array.iteri
    (fun i n -> if i >= Traced.op_step then
        Tally.addi t ("work.calls." ^ Traced.op_names.(i)) n)
    tot.calls;
  Tally.addi t "lock.calls"
    (tot.calls.(Traced.op_try_lock) + tot.calls.(Traced.op_lock)
    + tot.calls.(Traced.op_locked));
  Tally.addi t "lock.try_fails" tot.try_fails;
  Tally.addi t "lock.wait_cycles" tot.lock_wait;
  Tally.addi t "lock.locked_cycles" tot.locked_span;
  Tally.addi t "work.idle_until_cycles" tot.idle_until_span;
  Tally.addi t "work.step_stall_cycles" (tot.step_span - tot.step_nominal);
  List.iter
    (fun (idx, v) ->
      Hashtbl.replace lock_time idx
        (v + Option.value (Hashtbl.find_opt lock_time idx) ~default:0))
    tot.lock_time

(* ---- output ----------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* ---- one measured pass -------------------------------------------------- *)

(* What a workload's pass returns.  [lat_ms], [tail_ms] and [tput_per_s]
   are the gated end-to-end figures (see NOTES.md for their definition
   per workload); [headline] carries the workload's own named metrics. *)
type pass = {
  ops : int;
  failed : int;
  signature : string;  (** bit-exact results of a simulated pass; "" otherwise *)
  lat_ms : float;
  tail_ms : float;
  tput_per_s : float;
  headline : (string * string * float) list;  (** name, unit, value *)
  layers : Tally.t;
  lock_time : (int, int) Hashtbl.t;  (** filled by traced passes *)
}

(* Run [f] as a top-level host span of a traced pass. *)
let span spans ~name ~tag f =
  match spans with Some s -> Spans.host_span s ~name ~tag f | None -> f ()

(* Run one cell, [f], on platform [P] — or, in a traced pass (when
   [spans] is set), on the [Traced] shim over [P] with [P]'s telemetry on,
   folding the shim's totals into [layers] and [lock_time] and its call
   spans into the store.  [clock] names [P]'s timestamp unit. *)
let on_platform ~spans ~layers ~lock_time ~cost ~clock ~cell
    (module P : Mp.Mp_intf.PLATFORM_INT) (f : (module Mp.Mp_intf.PLATFORM_INT) -> 'a) =
  span spans ~name:"cell" ~tag:cell (fun () ->
      match spans with
      | None -> f (module P)
      | Some store ->
          let module T = Traced.Make ((val cost : Traced.COST)) (P) in
          P.Telemetry.attach_sink Obs.Sink.null;
          let v = Fun.protect ~finally:P.Telemetry.disable (fun () -> f (module T)) in
          tally_shim layers lock_time (T.totals ());
          T.drain_spans store ~cell ~clock;
          v)
