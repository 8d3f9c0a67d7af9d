open Mp

(* Scheduler directive: the suspend body has already re-queued (or freed)
   the current proc; return control to the simulation loop. *)
type Engine.action += A_yield

(* A parked idle poller ([Work.idle_until]): the fiber suspended once and
   the scheduler services its per-quantum readiness checks and idle charges
   directly, resuming the continuation only when the predicate holds.  The
   predicate is evaluated at exactly the (clock, id) positions where the
   always-suspend machine would have dispatched the polling fiber, so every
   shared-state read happens at its reference position. *)
type Engine.action += A_poll of (unit -> bool) * unit Engine.cont

module Make
    (C : sig
      val config : Sim_config.t
    end)
    (D : Mp.Mp_intf.DATUM) =
struct
  let config = C.config
  let name = "sim:" ^ config.name

  module Kont = struct
    type 'a cont = 'a Engine.cont

    let callcc = Engine.callcc
    let throw = Engine.throw
    let throw_exn = Engine.throw_exn
  end

  type pstate =
    | Free
    | Ready of Engine.action
    | Current
    | Gc_waiting of Engine.action

  type sproc = {
    id : int;
    mutable clock : int;
    mutable state : pstate;
    mutable datum : D.t;
    mutable busy : int;
    mutable idle : int;
    mutable gc_wait : int;
    mutable spins : int;
    mutable alloc_words : int;
    mutable ran_ahead : int;
        (* cycles accumulated inline (run-ahead fast path) since the last
           real suspension; flushed to the trace when the proc suspends *)
  }

  (* A contended shared word: a platform lock, or a client's [Work.line]
     (whose [held] bit is unused).  [sharers] is the set of nodes whose
     caches hold the word (a bitmask); every write is an RMW that claims
     the line exclusive, so under a hierarchical machine a write from a
     node outside the sharer set crosses the inter-node link and
     invalidates the remote copies.  Under [Flat_bus] there is one node and
     the remote route is unreachable. *)
  type word = { mutable held : bool; mutable sharers : int }

  (* One op of a work program ([Work.step]'s interleaved compute/alloc
     slices, [Work.alloc]'s slice loop): the unit at which the reference
     machine charges and suspends. *)
  type work_op = W_charge of int | W_alloc of int

  (* What to do once a parked lock episode acquires the lock: resume the
     fiber ([K_lock]), or run a charge-free critical section, pay the
     unlock, and only then resume ([K_locked], the [Lock.locked] fusion). *)
  type lock_kont =
    | K_lock of unit Engine.cont
    | K_locked of (unit -> unit) * unit Engine.cont

  (* Parked episodes serviced by the scheduler without re-entering the
     fiber.  Each constructor records exactly which reference-machine
     suspension it stands in for; the pending effects are applied at the
     pop, at the same (clock, id) positions the always-suspend twin would
     use, so virtual time is bit-identical while a whole episode costs at
     most one effect-handler suspension. *)
  type Engine.action +=
    | A_work of work_op list * unit Engine.cont
        (* previous op committed; remaining ops pending *)
    | A_lock of word * bool * int * lock_kont
        (* [A_lock (l, probed, attempt, kont)]: the probe RMW committed and
           the held-test pending ([probed]), or the spin-retry delay
           committed and the next probe pending; [attempt] probes failed *)
    | A_unlock of word * unit Engine.cont
        (* unlock RMW committed; the release write is pending *)

  let fresh_proc id =
    {
      id;
      clock = 0;
      state = Free;
      datum = D.initial;
      busy = 0;
      idle = 0;
      gc_wait = 0;
      spins = 0;
      alloc_words = 0;
      ran_ahead = 0;
    }

  let procs = Array.init config.procs fresh_proc

  (* Ready procs, keyed (clock, id): the scheduler pops the minimum instead
     of scanning all procs.  Invariant: a proc is in the heap iff its state
     is [Ready _]. *)
  let ready = Ready_heap.create ~ids:config.procs ~dummy:procs.(0)
  let current = ref 0
  let cur () = procs.(!current)

  (* Machine topology.  [Flat_bus] is one node; [Numa] groups the procs
     into [n_nodes] contiguous nodes, each with its own FCFS bus, joined by
     a single shared FCFS link with its own latency and bandwidth.  All
     per-node state is indexed by node id; with one node the arrays are
     singletons. *)
  let n_nodes = Sim_config.nodes config
  let per_node = Sim_config.procs_per_node config
  let node_of_proc id = if n_nodes = 1 then 0 else id / per_node

  let link_latency, link_bytes_per_cycle =
    match config.machine with
    | Sim_config.Flat_bus -> (0, config.bus_bytes_per_cycle)
    | Sim_config.Numa { link_latency_cycles; link_bytes_per_cycle; _ } ->
        (link_latency_cycles, link_bytes_per_cycle)

  let popcount x =
    let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
    go 0 x

  (* Per-node bus state, plus the shared inter-node link. *)
  let bus_free_at = Array.make n_nodes 0
  let bus_busy = Array.make n_nodes 0
  let link_free_at = ref 0
  let link_busy = ref 0
  let bus_total_bytes = ref 0
  let remote_bytes = ref 0
  let invalidations = ref 0

  (* GC cost model: all region accounting (admission, trigger, episode
     pricing) lives behind [Gc_model.MODEL]; the scheduler only parks
     procs while [gc_pending] is set and prices the barrier via
     [GcM.episode]. *)
  module GcM = (val Gc_model.instance config.gc
                      {
                        Gc_model.procs = config.procs;
                        region_words = config.gc_region_words;
                        survival = config.gc_survival;
                        cycles_per_word = config.gc_cycles_per_word;
                        fixed_cycles = config.gc_fixed_cycles;
                        minor_fixed_cycles = config.gc_minor_fixed_cycles;
                        barrier_cycles = config.gc_barrier_cycles;
                      })

  let gc_pending = GcM.pending
  let gc_collections () = GcM.minor_collections () + GcM.major_collections ()
  let gc_pause_cycles () = GcM.pause_cycles ()
  let max_clock = ref 0
  let sched_decisions_ct = ref 0
  let coalesced_ct = ref 0
  let idle_parks_ct = ref 0
  let idle_polls_ct = ref 0
  let lock_acquires_ct = ref 0
  let susp_at_start = ref 0
  let escaped : exn option ref = ref None
  let poll_hook = ref (fun () -> ())
  let running = ref false

  module Telemetry = Mp_intf.Telemetry_of (struct
    (* Single stream: the simulator multiplexes every proc over one domain,
       so emission is already serialized.  Timestamps are the current
       proc's virtual clock, keeping traces deterministic. *)
    let handle =
      Obs.Telemetry.create
        ~stream_of:(fun () -> 0)
        ~now_ts:(fun () -> (cur ()).clock)
        ()
  end)

  (* Construction at every emit site is guarded by [tracing] so a quiet run
     allocates no events, charges no virtual time and takes no extra
     suspensions. *)
  let tracing = Telemetry.enabled
  let trace_event = Telemetry.emit
  let observe_clock n = if n > !max_clock then max_clock := n

  (* ------------------------------------------------------------------ *)
  (* Ready-set maintenance.                                             *)
  (* ------------------------------------------------------------------ *)

  let check_heap () =
    if config.heap_debug then assert (Ready_heap.valid ready)

  (* A suspension flushes any run-ahead accumulation: later inline charges
     belong to the next dispatch. *)
  let flush_run_ahead p =
    if p.ran_ahead > 0 then begin
      if tracing () then
        trace_event
          (Obs.Event.Coalesced
             { proc = p.id; clock = p.clock; cycles = p.ran_ahead });
      p.ran_ahead <- 0
    end

  let set_ready p a =
    flush_run_ahead p;
    p.state <- Ready a;
    Ready_heap.push ready ~clock:p.clock ~id:p.id p;
    check_heap ()

  (* ------------------------------------------------------------------ *)
  (* Cost quotes.                                                       *)
  (* ------------------------------------------------------------------ *)

  (* Every simulator op is [cpu] cycles of work (busy, or [idle])
     followed by an optional [bytes]-byte transfer on the proc's FCFS node
     bus; a write that invalidates [invals] > 0 copies cached on other
     nodes then also crosses the shared FCFS link, paying its latency.
     [quote] prices an op from [p.clock] and the machine state into the
     scratch [quoted], changing nothing (so quoting allocates nothing);
     [commit] applies the last quote.  Bus and link queueing count as busy
     time: the proc is stalled on memory, not idle. *)
  type quote = {
    mutable post : int;  (* clock after the op *)
    mutable idle : bool;  (* the op's cycles count as idle, not busy *)
    mutable bus_end : int;  (* the node bus's free-at after the op *)
    mutable bus_cycles : int;  (* node-bus occupancy; 0 = no transfer *)
    mutable link_cycles : int;  (* link occupancy; 0 = stays on the node *)
    mutable bytes : int;
    mutable invals : int;
  }

  let quoted =
    {
      post = 0;
      idle = false;
      bus_end = 0;
      bus_cycles = 0;
      link_cycles = 0;
      bytes = 0;
      invals = 0;
    }

  let transfer_cycles bytes per_cycle =
    max 1 (int_of_float (float_of_int bytes /. per_cycle))

  let alloc_cycles words =
    int_of_float (config.alloc_cycles_per_word *. float_of_int words)

  let quote p ~cpu ~bytes ~invals ~idle =
    let start = p.clock + cpu in
    quoted.idle <- idle;
    quoted.bytes <- bytes;
    quoted.invals <- invals;
    quoted.link_cycles <- 0;
    if bytes = 0 then begin
      quoted.post <- start;
      quoted.bus_cycles <- 0
    end
    else begin
      let d = transfer_cycles bytes config.bus_bytes_per_cycle in
      let bus_end = max start bus_free_at.(node_of_proc p.id) + d in
      quoted.bus_cycles <- d;
      quoted.bus_end <- bus_end;
      quoted.post <- bus_end;
      if invals > 0 then begin
        let k = link_latency + transfer_cycles bytes link_bytes_per_cycle in
        quoted.link_cycles <- k;
        quoted.post <- max bus_end !link_free_at + k
      end
    end

  let commit p =
    let q = quoted in
    let total = q.post - p.clock in
    p.clock <- q.post;
    if q.idle then p.idle <- p.idle + total else p.busy <- p.busy + total;
    if q.bytes > 0 then begin
      let node = node_of_proc p.id in
      bus_free_at.(node) <- q.bus_end;
      bus_busy.(node) <- bus_busy.(node) + q.bus_cycles;
      bus_total_bytes := !bus_total_bytes + q.bytes;
      if q.link_cycles > 0 then begin
        link_free_at := q.post;
        link_busy := !link_busy + q.link_cycles;
        remote_bytes := !remote_bytes + q.bytes;
        invalidations := !invalidations + q.invals
      end
    end;
    observe_clock q.post

  (* The run-ahead gate: commit the op inline, without suspending, exactly
     when the scheduler would hand control straight back to [p] anyway —
     no GC pending and [p]'s post-op (clock, id) key still precedes every
     ready proc's key.  The suspend/dispatch round-trip it skips is then a
     virtual-time no-op, so results are bit-identical to the always-suspend
     scheduler.  The first key test uses a lower bound of the post-op clock
     (a transfer takes at least one cycle), so a failed attempt — the
     common case under contention — costs a few compares and no quote. *)
  let inline_op p ~cpu ~bytes ~invals ~idle =
    config.run_ahead
    && (not !gc_pending)
    && Ready_heap.precedes_min ready
         ~clock:(if bytes = 0 then p.clock + cpu else p.clock + cpu + 1)
         ~id:p.id
    && begin
         quote p ~cpu ~bytes ~invals ~idle;
         bytes = 0 || Ready_heap.precedes_min ready ~clock:quoted.post ~id:p.id
       end
    && begin
         p.ran_ahead <- p.ran_ahead + (quoted.post - p.clock);
         incr coalesced_ct;
         commit p;
         true
       end

  (* The suspend path commits the same quote at the same position: in a
     scheduler-side episode machine, or in the fiber just before it
     suspends — a suspend body runs at once, before any other proc, so no
     one can tell the two apart. *)
  let apply_op p ~cpu ~bytes ~invals ~idle =
    quote p ~cpu ~bytes ~invals ~idle;
    commit p

  (* Commit one op: through the gate ([true]: keep going within this
     dispatch), or as the suspend path would ([false]: the caller parks or
     re-queues the proc at its new key). *)
  let step_op p ~cpu ~bytes ~invals ~idle =
    inline_op p ~cpu ~bytes ~invals ~idle
    || begin
         apply_op p ~cpu ~bytes ~invals ~idle;
         false
       end

  (* The fiber's suspension after a refused op: re-queue at the committed
     key.  One static closure serves every suspending charge. *)
  let requeue c =
    set_ready (cur ()) (Engine.Resume (c, ()));
    A_yield

  let charge_op p ~cpu ~bytes ~invals ~idle =
    if not (step_op p ~cpu ~bytes ~invals ~idle) then Engine.suspend requeue

  let charge_cpu ~idle n =
    if n > 0 then charge_op (cur ()) ~cpu:n ~bytes:0 ~invals:0 ~idle

  (* An RMW from [p] on [w] claims the line exclusive for [p]'s node and
     returns how many other nodes' copies it invalidates (0 = the transfer
     stays on the node bus).  Callers claim once, before the gate, and pass
     the count to whichever path commits. *)
  let claim p w =
    let me = 1 lsl node_of_proc p.id in
    let others = w.sharers land lnot me in
    w.sharers <- me;
    popcount others

  let rmw p w ~cpu ~bytes =
    charge_op p ~cpu ~bytes ~invals:(claim p w) ~idle:false

  (* Allocation is spread over the computation it belongs to: one op per
     small slice, so bus occupancy interleaves with other procs instead of
     arriving as one long FCFS burst. *)
  let alloc_slice_words = 256

  (* Inline allocation additionally needs the GC model's strict admission
     (this slice cannot fill the region): a trigger must park the proc. *)
  let alloc_inline p w =
    GcM.admit ~proc:p.id ~words:w
    && inline_op p ~cpu:(alloc_cycles w) ~bytes:(w * config.word_bytes)
         ~invals:0 ~idle:false
    && begin
         p.alloc_words <- p.alloc_words + w;
         GcM.commit_fast ~proc:p.id ~words:w;
         true
       end

  (* Suspend-path allocation: route the words through the GC model (which
     may set [gc_pending]) and, when the model ran an independent minor
     collection ([minor_pp]), charge its pause to this proc alone — the
     other procs keep running, which is the whole point of per-proc minor
     heaps. *)
  let alloc_apply p w =
    apply_op p ~cpu:(alloc_cycles w) ~bytes:(w * config.word_bytes) ~invals:0
      ~idle:false;
    p.alloc_words <- p.alloc_words + w;
    let pause, collected = GcM.alloc_slow ~proc:p.id ~words:w in
    if pause > 0 then begin
      if tracing () then
        trace_event
          (Obs.Event.Gc_start
             { clock = p.clock; region_words = collected; kind = Minor; waiters = 0 });
      p.clock <- p.clock + pause;
      p.gc_wait <- p.gc_wait + pause;
      observe_clock p.clock;
      if tracing () then
        trace_event (Obs.Event.Gc_end { clock = p.clock; duration = pause })
    end

  (* [step_op] for one op of a work program. *)
  let op_step p = function
    | W_charge n -> n <= 0 || step_op p ~cpu:n ~bytes:0 ~invals:0 ~idle:false
    | W_alloc w ->
        w <= 0
        || alloc_inline p w
        || begin
             alloc_apply p w;
             false
           end

  let alloc_slices words =
    let ops = ref [] in
    let remaining = ref words in
    while !remaining > 0 do
      let slice = min !remaining alloc_slice_words in
      ops := W_alloc slice :: !ops;
      remaining := !remaining - slice
    done;
    List.rev !ops

  (* The delay before proc [proc]'s next probe after its [attempt]th failed
     one: [spin_retry_cycles] plus a deterministic jitter of
     [(proc * 37 + attempt * 13) mod 101] cycles.  The jitter breaks the
     phase-locking that a fixed period can produce under the deterministic
     min-clock scheduler (a spinning proc could otherwise probe forever
     exactly inside other procs' hold windows). *)
  let retry_delay proc attempt =
    config.spin_retry_cycles + (((proc * 37) + (attempt * 13)) mod 101)

  let note_acquired p attempt =
    incr lock_acquires_ct;
    if tracing () then begin
      trace_event (Obs.Event.Lock_acquired { proc = p.id; clock = p.clock });
      if attempt > 0 then
        trace_event
          (Obs.Event.Lock_contended { proc = p.id; clock = p.clock; spins = attempt })
    end

  (* ------------------------------------------------------------------ *)
  (* Episode machines, run by the fiber until the first refused op and    *)
  (* then by the scheduler from the position the fiber parked at.  Each   *)
  (* step is what the reference fiber does during one dispatch: the       *)
  (* run-ahead gate and commit, else the suspend path's commit.           *)
  (* ------------------------------------------------------------------ *)

  (* Work programs: commit ops through the gate.  [None] once the program
     is done; otherwise the first refused op has been committed as the
     suspend path would and the rest is returned to park with. *)
  let rec drain p = function
    | [] -> None
    | op :: rest -> if op_step p op then drain p rest else Some rest

  (* Spin locks, from the position [(probed, attempt)]: the probe committed
     and the held-test pending ([probed]), or the next probe pending, after
     [attempt] failed probes.  [None] once the lock is acquired; otherwise
     the refused op (probe or retry delay) has been committed and the
     position to park at is returned. *)
  let rec spin p l ~probed attempt =
    if not probed then
      if
        step_op p ~cpu:config.try_lock_cycles ~bytes:config.lock_bus_bytes
          ~invals:(claim p l) ~idle:false
      then spin p l ~probed:true attempt
      else Some (true, attempt)
    else if l.held then begin
      p.spins <- p.spins + 1;
      let attempt = attempt + 1 in
      if step_op p ~cpu:(retry_delay p.id attempt) ~bytes:0 ~invals:0 ~idle:false
      then spin p l ~probed:false attempt
      else Some (false, attempt)
    end
    else begin
      l.held <- true;
      note_acquired p attempt;
      None
    end

  (* ------------------------------------------------------------------ *)
  (* Simulation loop.                                                    *)
  (* ------------------------------------------------------------------ *)

  let on_exn e =
    if !escaped = None then escaped := Some e;
    Engine.Stop

  let exec_action = function
    | Engine.Resume (c, v) -> Engine.resume c v
    | Engine.Raise (c, e) -> Engine.resume_exn c e
    | Engine.Start f -> Engine.run_fiber ~on_exn f
    | _ -> raise Engine.Unhandled_action

  (* Run one proc from its pending action until it yields back. *)
  let interp p action =
    let a = ref action in
    let live = ref true in
    while !live do
      match !a with
      | Engine.Stop ->
          p.state <- Free;
          live := false
      | A_yield -> live := false
      | other -> a := exec_action other
    done

  let run_gc () =
    let gc_start =
      Array.fold_left
        (fun acc p ->
          match p.state with Gc_waiting _ -> max acc p.clock | _ -> acc)
        0 procs
    in
    let waiters =
      Array.fold_left
        (fun acc p -> match p.state with Gc_waiting _ -> acc + 1 | _ -> acc)
        0 procs
    in
    let ep = GcM.episode ~waiters in
    let dur = ep.Gc_model.duration in
    let finish = gc_start + dur in
    if tracing () then
      trace_event
        (Obs.Event.Gc_start
           {
             clock = gc_start;
             region_words = ep.Gc_model.region_words;
             kind = ep.Gc_model.kind;
             waiters;
           });
    (* Release before clearing gc_pending so [set_ready]'s heap pushes see a
       consistent world; clocks all equal [finish], so dispatch order among
       the released procs is by id, as with the scan. *)
    Array.iter
      (fun p ->
        match p.state with
        | Gc_waiting pending ->
            p.gc_wait <- p.gc_wait + (finish - p.clock);
            p.clock <- finish;
            set_ready p pending
        | Free | Ready _ | Current -> ())
      procs;
    observe_clock finish;
    if tracing () then
      trace_event (Obs.Event.Gc_end { clock = finish; duration = dur });
    GcM.finish_episode ep

  (* One scheduler decision: the proc is handed its pending action. *)
  let note_dispatch p =
    incr sched_decisions_ct;
    if tracing () then
      trace_event (Obs.Event.Dispatch { proc = p.id; clock = p.clock })

  (* Service a parked poller popped at its wake key.  Each iteration is one
     reference-machine dispatch: count a decision, evaluate the predicate at
     the current (clock, id) position, and either resume the fiber or commit
     one idle quantum.  After a quantum, keep going inline exactly when the
     scheduler would re-pop this proc next anyway (its key still precedes
     the heap minimum, no GC pending); otherwise re-queue and let the next
     pop continue — either way no effect-handler suspension is taken, which
     is the entire saving. *)
  let poll_dispatch p rdy k =
    let continue_ = ref true in
    while !continue_ do
      incr idle_polls_ct;
      note_dispatch p;
      let r = rdy () in
      if config.heap_debug then
        (* The equivalence argument needs a pure predicate: a second
           evaluation at the same position must agree. *)
        assert (rdy () = r);
      if r then begin
        continue_ := false;
        interp p (Engine.Resume (k, ()))
      end
      else begin
        apply_op p ~cpu:config.idle_quantum_cycles ~bytes:0 ~invals:0 ~idle:true;
        incr coalesced_ct;
        if
          !gc_pending
          || not (Ready_heap.precedes_min ready ~clock:p.clock ~id:p.id)
        then begin
          continue_ := false;
          set_ready p (A_poll (rdy, k))
        end
        else check_heap ()
      end
    done

  (* A parked lock episode has acquired the lock: resume the fiber, or
     first run its charge-free section and pay the unlock ([K_locked]). *)
  let lock_won p l kont =
    match kont with
    | K_lock k -> interp p (Engine.Resume (k, ()))
    | K_locked (run, k) ->
        run ();
        if
          step_op p ~cpu:config.unlock_cycles ~bytes:config.lock_bus_bytes
            ~invals:(claim p l) ~idle:false
        then begin
          l.held <- false;
          interp p (Engine.Resume (k, ()))
        end
        else set_ready p (A_unlock (l, k))

  let any_gc_waiting () =
    Array.exists (fun p -> match p.state with Gc_waiting _ -> true | _ -> false) procs

  let rec loop () =
    if not (Ready_heap.is_empty ready) then begin
        let p = Ready_heap.pop_unchecked ready in
        check_heap ();
        if !gc_pending then begin
          (* Park ready procs at the barrier in min-clock order, exactly as
             the scan did, until none remain and the collection can run. *)
          (match p.state with
          | Ready a -> p.state <- Gc_waiting a
          | Free | Current | Gc_waiting _ -> assert false);
          loop ()
        end
        else begin
          let a = match p.state with Ready a -> a | _ -> assert false in
          p.state <- Current;
          current := p.id;
          (match a with
          | A_poll (rdy, k) -> poll_dispatch p rdy k
          | a -> (
              note_dispatch p;
              match a with
              | A_work (ops, k) -> (
                  match drain p ops with
                  | None -> interp p (Engine.Resume (k, ()))
                  | Some rest -> set_ready p (A_work (rest, k)))
              | A_lock (l, probed, attempt, kont) -> (
                  match spin p l ~probed attempt with
                  | None -> lock_won p l kont
                  | Some (probed, attempt) ->
                      set_ready p (A_lock (l, probed, attempt, kont)))
              | A_unlock (l, k) ->
                  l.held <- false;
                  interp p (Engine.Resume (k, ()))
              | a -> interp p a));
          (if tracing () && p.state = Free then
             trace_event (Obs.Event.Freed { proc = p.id; clock = p.clock }));
          loop ()
        end
    end
    else if any_gc_waiting () then begin
      (* Barrier complete: every non-free proc is parked at a clean
         point.  (Also reached when gc_pending was consumed but stragglers
         remain parked — run_gc releases them.) *)
      run_gc ();
      loop ()
    end
    (* else: all procs free — simulation over *)

  (* ------------------------------------------------------------------ *)
  (* Platform interface.                                                 *)
  (* ------------------------------------------------------------------ *)

  module Proc = struct
    type proc_datum = D.t
    type proc_state = PS of unit Engine.cont * proc_datum

    exception No_More_Procs = Mp_intf.No_More_Procs

    let acquire_proc (PS (cont, datum)) =
      let ok =
        Engine.suspend (fun c ->
            let p = cur () in
            apply_op p ~cpu:config.acquire_proc_cycles ~bytes:0 ~invals:0
              ~idle:false;
            let free = Array.find_opt (fun q -> q.state = Free && q.id <> p.id) procs in
            match free with
            | Some q ->
                q.datum <- datum;
                let start = max q.clock p.clock in
                q.idle <- q.idle + (start - q.clock);
                q.clock <- start;
                set_ready q (Engine.Resume (cont, ()));
                if tracing () then
                  trace_event
                    (Obs.Event.Acquired { proc = q.id; by = p.id; clock = p.clock });
                set_ready p (Engine.Resume (c, true));
                A_yield
            | None ->
                set_ready p (Engine.Resume (c, false));
                A_yield)
      in
      if not ok then raise No_More_Procs

    let release_proc () =
      Engine.suspend (fun _ ->
          let p = cur () in
          flush_run_ahead p;
          p.state <- Free;
          A_yield)

    let initial_datum = D.initial
    let get_datum () = (cur ()).datum
    let set_datum d = (cur ()).datum <- d
    let self () = !current
    let max_procs () = config.procs

    let live_procs () =
      Array.fold_left
        (fun acc p -> if p.state = Free then acc else acc + 1)
        0 procs

    let nodes () = n_nodes
    let node_of = node_of_proc
  end

  module Lock = struct
    type mutex_lock = word

    let mutex_lock () = { held = false; sharers = 0 }

    (* Commit the probe first (a suspension point), then test-and-set with
       no intervening suspension — atomic in virtual time.  When the
       run-ahead gate commits inline, no other proc can run between probe
       and test either way. *)
    let try_lock l =
      let p = cur () in
      rmw p l ~cpu:config.try_lock_cycles ~bytes:config.lock_bus_bytes;
      if l.held then begin
        p.spins <- p.spins + 1;
        false
      end
      else begin
        l.held <- true;
        note_acquired p 0;
        true
      end

    (* Reference spin loop: the always-suspend oracle ([run_ahead = false]). *)
    let lock_ref l =
      let attempt = ref 0 in
      while not (try_lock l) do
        incr attempt;
        charge_cpu ~idle:false (retry_delay !current !attempt)
      done;
      if !attempt > 0 && tracing () then
        let q = cur () in
        trace_event
          (Obs.Event.Lock_contended
             { proc = q.id; clock = q.clock; spins = !attempt })

    (* Run-ahead: the fiber runs the [spin] machine until the first
       refused op, then parks once and the scheduler runs the rest of the
       episode.  The reference loop costs up to two suspensions per spin
       iteration; this costs at most one per episode. *)
    let lock l =
      if config.run_ahead then begin
        let p = cur () in
        match spin p l ~probed:false 0 with
        | None -> ()
        | Some (probed, attempt) ->
            Engine.suspend (fun c ->
                set_ready p (A_lock (l, probed, attempt, K_lock c));
                A_yield)
      end
      else lock_ref l

    let unlock l =
      rmw (cur ()) l ~cpu:config.unlock_cycles ~bytes:config.lock_bus_bytes;
      l.held <- false

    (* lock + charge-free critical section + unlock, fused into a single
       parked episode: under contention the whole sequence costs at most
       one suspension instead of one per probe, retry and unlock. *)
    let locked l f =
      if config.run_ahead then begin
        let p = cur () in
        let res = ref None in
        let run () = res := Some (try Ok (f ()) with e -> Error e) in
        (match spin p l ~probed:false 0 with
        | None ->
            (* acquired inline: the fiber pays for the section and unlock,
               exactly as the reference below *)
            run ();
            unlock l
        | Some (probed, attempt) ->
            (* the scheduler also runs the section and the unlock *)
            Engine.suspend (fun c ->
                set_ready p (A_lock (l, probed, attempt, K_locked (run, c)));
                A_yield));
        match !res with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false
      end
      else begin
        lock_ref l;
        match f () with
        | v ->
            unlock l;
            v
        | exception e ->
            unlock l;
            raise e
      end
  end

  (* Run a work program from the fiber: [drain] commits ops inline while
     the gate allows, and at the first refused op the fiber parks once; the
     scheduler drains the rest with the same machine, at the reference
     positions.  With run-ahead off this is the reference loop, one
     suspension per op. *)
  let run_ops ops =
    let p = cur () in
    if config.run_ahead then
      match drain p ops with
      | None -> ()
      | Some rest ->
          (* returns once the scheduler has drained [rest] *)
          Engine.suspend (fun c ->
              set_ready p (A_work (rest, c));
              A_yield)
    else List.iter (fun op -> if not (op_step p op) then Engine.suspend requeue) ops

  module Work = struct
    let charge n = charge_cpu ~idle:false n
    let alloc ~words = run_ops (alloc_slices words)

    let traffic ~bytes =
      if bytes > 0 then charge_op (cur ()) ~cpu:0 ~bytes ~invals:0 ~idle:false

    (* Contended shared words outside the platform lock (the lock-algorithm
       family's cells, run-queue heads), driven by the client through
       {!read_line}/{!write_line}.  [read_line] is charge-free by contract —
       the read's cost was already charged — so it only grows the sharer
       set; [write_line] is the same RMW op as a lock probe. *)
    type line = word

    let line () = { held = false; sharers = 0 }

    let read_line ln =
      ln.sharers <- ln.sharers lor (1 lsl node_of_proc !current)

    let write_line ln ~bytes = if bytes > 0 then rmw (cur ()) ln ~cpu:0 ~bytes

    (* Interleave compute and allocation slices so the generated bus
       traffic is spread across the work, as real allocation is. *)
    let step ?alloc_words ~instrs () =
      let words =
        match alloc_words with Some w -> w | None -> instrs / 5
      in
      let cycles = int_of_float (float_of_int instrs *. config.cpi) in
      let slices = max 1 ((words + alloc_slice_words - 1) / alloc_slice_words) in
      let cyc_per = cycles / slices and w_per = words / slices in
      let ops = ref [] in
      for i = slices downto 1 do
        ops :=
          W_charge
            (if i = 1 then cycles - (cyc_per * (slices - 1)) else cyc_per)
          :: W_alloc (if i = 1 then words - (w_per * (slices - 1)) else w_per)
          :: !ops
      done;
      run_ops !ops;
      !poll_hook ()

    let poll () = !poll_hook ()
    let set_poll_hook f = poll_hook := f
    let idle () = charge_cpu ~idle:true config.idle_quantum_cycles

    (* Fast path: park once and let the scheduler service the per-quantum
       checks ([poll_dispatch]).  The park commits the first quantum, so
       the first check happens one quantum after the call — exactly where
       the reference loop (and the always-suspend twin) evaluates it. *)
    let idle_until ~ready =
      if config.run_ahead then
        Engine.suspend (fun c ->
            let p = cur () in
            apply_op p ~cpu:config.idle_quantum_cycles ~bytes:0 ~invals:0
              ~idle:true;
            incr idle_parks_ct;
            set_ready p (A_poll (ready, c));
            A_yield)
      else begin
        let rec go () =
          idle ();
          if not (ready ()) then go ()
        in
        go ()
      end

    let now () = Sim_config.cycles_to_seconds config (cur ()).clock

    (* Virtual seconds, kept per proc outside the cycle accounting: the
       blocking path already charged the cycles as idle time, this only
       re-labels them for [Stats.queue_wait]. *)
    let queue_wait_secs = Array.make config.procs 0.

    let note_queue_wait ~seconds =
      let id = (cur ()).id in
      queue_wait_secs.(id) <- queue_wait_secs.(id) +. seconds
  end

  let reset () =
    Array.iteri
      (fun i p ->
        let f = fresh_proc i in
        p.clock <- f.clock;
        p.state <- Free;
        p.datum <- D.initial;
        p.busy <- 0;
        p.idle <- 0;
        p.gc_wait <- 0;
        p.spins <- 0;
        p.alloc_words <- 0;
        p.ran_ahead <- 0)
      procs;
    Array.fill Work.queue_wait_secs 0 config.procs 0.;
    Ready_heap.clear ready;
    Array.fill bus_free_at 0 n_nodes 0;
    Array.fill bus_busy 0 n_nodes 0;
    link_free_at := 0;
    link_busy := 0;
    bus_total_bytes := 0;
    remote_bytes := 0;
    invalidations := 0;
    GcM.reset ();
    max_clock := 0;
    sched_decisions_ct := 0;
    coalesced_ct := 0;
    idle_parks_ct := 0;
    idle_polls_ct := 0;
    lock_acquires_ct := 0;
    susp_at_start := Engine.suspensions ();
    escaped := None;
    poll_hook := (fun () -> ())

  (* Publish the machine counters through the telemetry registry once per
     run — after the loop, so nothing is charged on the simulated path. *)
  let fold_counters () =
    let set name v = Obs.Counters.set (Telemetry.counter name) v in
    set "sim.makespan_cycles" !max_clock;
    set "sim.sched_decisions" !sched_decisions_ct;
    set "sim.coalesced_charges" !coalesced_ct;
    set "sim.idle_parks" !idle_parks_ct;
    set "sim.idle_polls" !idle_polls_ct;
    set "gc.collections" (gc_collections ());
    set "gc.minor_count" (GcM.minor_collections ());
    set "gc.major_count" (GcM.major_collections ());
    set "gc.pause_cycles" (gc_pause_cycles ());
    set "gc.wait_cycles" (Array.fold_left (fun acc p -> acc + p.gc_wait) 0 procs);
    set "bus.bytes" !bus_total_bytes;
    set "bus.local_bytes" (!bus_total_bytes - !remote_bytes);
    set "bus.remote_bytes" !remote_bytes;
    set "bus.busy_cycles" (Array.fold_left ( + ) 0 bus_busy);
    set "link.busy_cycles" !link_busy;
    set "cache.invalidations" !invalidations;
    set "lock.acquires" !lock_acquires_ct;
    set "lock.spins" (Array.fold_left (fun acc p -> acc + p.spins) 0 procs)

  let run f =
    if !running then invalid_arg "Mp_sim.run: already running";
    running := true;
    reset ();
    let result = ref None in
    set_ready procs.(0) (Engine.Start (fun () -> result := Some (f ())));
    current := 0;
    Fun.protect
      ~finally:(fun () ->
        running := false;
        fold_counters ())
      (fun () ->
        loop ();
        match (!result, !escaped) with
        | Some v, None -> v
        | _, Some e -> raise e
        | None, None ->
            raise
              (Mp_intf.Deadlock
                 "sim: all procs released without producing a result"))

  let stats () =
    let t = Stats.zero ~platform:name ~procs:config.procs in
    let secs = Sim_config.cycles_to_seconds config in
    Array.iteri
      (fun i p ->
        let s = t.per_proc.(i) in
        s.busy <- secs p.busy;
        s.idle <- secs p.idle;
        s.gc_wait <- secs p.gc_wait;
        s.queue_wait <- Work.queue_wait_secs.(i);
        s.lock_spins <- p.spins;
        s.alloc_words <- p.alloc_words)
      procs;
    {
      t with
      elapsed = secs !max_clock;
      gc_time = secs (gc_pause_cycles ());
      gc_count = gc_collections ();
      bus_busy = secs (Array.fold_left ( + ) 0 bus_busy);
      bus_bytes = !bus_total_bytes;
      sched_decisions = !sched_decisions_ct;
      suspensions = Engine.suspensions () - !susp_at_start;
      heap_ops = Ready_heap.ops ready;
    }

  let reset_stats () = reset ()

  module Machine = struct
    let config = config
    let makespan_cycles () = !max_clock
    let sched_decisions () = !sched_decisions_ct
    let suspensions () = Engine.suspensions () - !susp_at_start
    let heap_ops () = Ready_heap.ops ready
    let coalesced_charges () = !coalesced_ct
    let idle_parks () = !idle_parks_ct
    let idle_polls () = !idle_polls_ct
    let gc_model () = Gc_model.to_string config.gc
    let gc_cycles () = gc_pause_cycles ()
    let gc_collections () = gc_collections ()
    let gc_minor_collections () = GcM.minor_collections ()
    let gc_major_collections () = GcM.major_collections ()

    let gc_wait_cycles () =
      Array.fold_left (fun acc p -> acc + p.gc_wait) 0 procs

    let bus_bytes () = !bus_total_bytes
    let remote_bytes () = !remote_bytes
    let invalidations () = !invalidations
    let bus_busy_cycles () = Array.fold_left ( + ) 0 bus_busy
    let link_busy_cycles () = !link_busy
    let elapsed_seconds () = Sim_config.cycles_to_seconds config !max_clock

    let gc_excluded_seconds () =
      Sim_config.cycles_to_seconds config (!max_clock - gc_pause_cycles ())

    let bus_mb_per_sec () =
      let secs = elapsed_seconds () in
      if secs <= 0. then 0.
      else float_of_int !bus_total_bytes /. 1.0e6 /. secs
  end
end

module Int
    (C : sig
      val config : Sim_config.t
    end)
    () =
  Make (C) (Mp_intf.Int_datum)
