(* Tracing shim over an MP platform.

   [Make (Cost) (P)] is a [PLATFORM_INT] that forwards every operation to
   [P] and, at the [Lock] and [Work] boundaries, counts each call and
   times it with [P.Telemetry.now_ts] — virtual cycles on the simulator,
   host nanoseconds on real backends.  Reading the clock neither charges
   nor suspends, so a client stack built over the shim computes the same
   results in the same virtual time as one built over [P]: the benchmark
   checks that, cell by cell.

   Counters live in per-proc rows, each written only by its own proc, so
   the shim adds no shared writes on a real multiprocessor except the
   per-lock time total (an [Atomic]). *)

module type COST = sig
  val step_cycles : instrs:int -> alloc_words:int -> int
  (** Nominal clock cost of [Work.step] with no bus or GC stall: what the
      platform charges for the instructions and allocation alone. *)
end

(* Call kinds; a span's op is one of these. *)
let op_try_lock = 0
let op_lock = 1
let op_locked = 2
let op_unlock = 3
let op_step = 4
let op_charge = 5
let op_alloc = 6
let op_traffic = 7
let op_write_line = 8
let op_idle_until = 9
let op_poll = 10
let n_ops = 11

let op_names =
  [| "try_lock"; "lock"; "locked"; "unlock"; "step"; "charge"; "alloc";
     "traffic"; "write_line"; "idle_until"; "poll" |]

let layer_of_op op = if op <= op_unlock then "lock" else "work"

(* Per-proc row layout: one call count per op, then the timed totals. *)
let f_try_fails = n_ops
let f_lock_wait = n_ops + 1
let f_locked = n_ops + 2
let f_idle_until = n_ops + 3
let f_step_span = n_ops + 4
let f_step_nominal = n_ops + 5
let n_fields = n_ops + 6

type totals = {
  calls : int array;  (** per op, indexed like [op_names] *)
  try_fails : int;
  lock_wait : int;  (** call to acquisition, [lock] and [locked] *)
  locked_span : int;  (** whole span of [locked] *)
  idle_until_span : int;
  step_span : int;
  step_nominal : int;
  lock_time : (int * int) list;
      (** (creation index, wait + locked time) per lock instance with
          non-zero time *)
}

let ring = 64

module Make (Cost : COST) (P : Mp.Mp_intf.PLATFORM_INT) : sig
  include Mp.Mp_intf.PLATFORM_INT

  val totals : unit -> totals

  val drain_spans : Spans.t -> cell:string -> clock:string -> unit
  (** Move the per-proc rings' surviving call spans into the store and
      clear them. *)
end = struct
  let name = P.name ^ "+traced"

  module Kont = P.Kont
  module Proc = P.Proc
  module Telemetry = P.Telemetry

  let now = P.Telemetry.now_ts
  let nprocs = max 1 (P.Proc.max_procs ())
  let rows = Array.init nprocs (fun _ -> Array.make n_fields 0)

  (* Call-span rings: per proc, the last [ring] calls as (op, start, end). *)
  let r_op = Array.init nprocs (fun _ -> Array.make ring 0)
  let r_start = Array.init nprocs (fun _ -> Array.make ring 0)
  let r_stop = Array.init nprocs (fun _ -> Array.make ring 0)
  let r_next = Array.make nprocs 0

  let proc () =
    let p = P.Proc.self () in
    if p < 0 || p >= nprocs then 0 else p

  let record p op t0 t1 =
    let row = rows.(p) in
    row.(op) <- row.(op) + 1;
    let i = r_next.(p) in
    let slot = i mod ring in
    r_op.(p).(slot) <- op;
    r_start.(p).(slot) <- t0;
    r_stop.(p).(slot) <- t1;
    r_next.(p) <- i + 1

  let add p field v =
    let row = rows.(p) in
    row.(field) <- row.(field) + v

  (* Span of the last preemption-hook call to end on each proc.  A step
     runs the hook last, and the hook may yield and resume the thread on
     another proc; nothing runs between the hook's end and the step's, so
     the step reads the span from the proc it ends on. *)
  let hook_span = Array.make nprocs 0

  module Lock = struct
    type mutex_lock = { l : P.Lock.mutex_lock; idx : int; time : int Atomic.t }

    let next_idx = Atomic.make 0
    let registry : mutex_lock list Atomic.t = Atomic.make []

    let mutex_lock () =
      let r =
        { l = P.Lock.mutex_lock (); idx = Atomic.fetch_and_add next_idx 1;
          time = Atomic.make 0 }
      in
      let rec push () =
        let old = Atomic.get registry in
        if not (Atomic.compare_and_set registry old (r :: old)) then push ()
      in
      push ();
      r

    let try_lock l =
      let t0 = now () in
      let ok = P.Lock.try_lock l.l in
      let p = proc () in
      record p op_try_lock t0 (now ());
      if not ok then add p f_try_fails 1;
      ok

    let lock l =
      let t0 = now () in
      P.Lock.lock l.l;
      let t1 = now () in
      let p = proc () in
      record p op_lock t0 t1;
      add p f_lock_wait (t1 - t0);
      ignore (Atomic.fetch_and_add l.time (t1 - t0))

    let unlock l =
      let t0 = now () in
      P.Lock.unlock l.l;
      record (proc ()) op_unlock t0 (now ())

    let locked l f =
      let t0 = now () in
      let t_acq = ref t0 in
      let v =
        P.Lock.locked l.l (fun () ->
            t_acq := now ();
            f ())
      in
      let t1 = now () in
      let p = proc () in
      record p op_locked t0 t1;
      add p f_lock_wait (!t_acq - t0);
      add p f_locked (t1 - t0);
      ignore (Atomic.fetch_and_add l.time (t1 - t0));
      v
  end

  module Work = struct
    type line = P.Work.line

    let timed op f =
      let t0 = now () in
      f ();
      let t1 = now () in
      record (proc ()) op t0 t1;
      t1 - t0

    (* A step's own span excludes the preemption hook it ends with: time
       the hook spends yielding to other threads is not a stall. *)
    let step ?alloc_words ~instrs () =
      hook_span.(proc ()) <- 0;
      let span =
        timed op_step (fun () -> P.Work.step ?alloc_words ~instrs ())
      in
      let p = proc () in
      let words = match alloc_words with Some w -> w | None -> instrs / 5 in
      add p f_step_span (span - hook_span.(p));
      add p f_step_nominal (Cost.step_cycles ~instrs ~alloc_words:words)

    let charge n = ignore (timed op_charge (fun () -> P.Work.charge n))
    let alloc ~words = ignore (timed op_alloc (fun () -> P.Work.alloc ~words))

    let traffic ~bytes =
      ignore (timed op_traffic (fun () -> P.Work.traffic ~bytes))

    let line = P.Work.line
    let read_line = P.Work.read_line

    let write_line l ~bytes =
      ignore (timed op_write_line (fun () -> P.Work.write_line l ~bytes))

    let poll () = ignore (timed op_poll P.Work.poll)
    let set_poll_hook f =
      P.Work.set_poll_hook (fun () ->
          let t0 = now () in
          f ();
          hook_span.(proc ()) <- now () - t0)
    let idle = P.Work.idle

    let idle_until ~ready =
      let span = timed op_idle_until (fun () -> P.Work.idle_until ~ready) in
      add (proc ()) f_idle_until span

    let now = P.Work.now
    let note_queue_wait = P.Work.note_queue_wait
  end

  let run = P.run
  let stats = P.stats
  let reset_stats = P.reset_stats

  let totals () =
    let sum field = Array.fold_left (fun acc row -> acc + row.(field)) 0 rows in
    {
      calls = Array.init n_ops sum;
      try_fails = sum f_try_fails;
      lock_wait = sum f_lock_wait;
      locked_span = sum f_locked;
      idle_until_span = sum f_idle_until;
      step_span = sum f_step_span;
      step_nominal = sum f_step_nominal;
      lock_time =
        List.filter_map
          (fun (l : Lock.mutex_lock) ->
            let t = Atomic.get l.time in
            if t > 0 then Some (l.idx, t) else None)
          (Atomic.get Lock.registry);
    }

  let drain_spans store ~cell ~clock =
    for p = 0 to nprocs - 1 do
      let n = r_next.(p) in
      let first = max 0 (n - ring) in
      Spans.note_dropped store first;
      for i = first to n - 1 do
        let slot = i mod ring in
        let op = r_op.(p).(slot) in
        Spans.add_call store
          { Spans.cell; proc = p; layer = layer_of_op op; op = op_names.(op);
            clock; start = r_start.(p).(slot); stop = r_stop.(p).(slot) }
      done;
      r_next.(p) <- 0
    done
end
