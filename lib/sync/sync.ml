open Mp

module Make (P : Mp.Mp_intf.PLATFORM_INT) (S : Mpthreads.Thread_intf.SCHED) =
struct
  (* Every park tail goes through [Park]: Blocked/Wakeup telemetry under
     [sync.*], emitted after the construct's spin lock is released. *)
  module Park = Mpthreads.Park.Make (P) (S) (struct
    let family = "sync"
  end)

  module Ivar = struct
    type 'a t = {
      spin : P.Lock.mutex_lock;
      mutable value : 'a option;
      mutable readers : ('a Engine.cont * int) list;
    }

    exception Already_filled

    let create () = { spin = P.Lock.mutex_lock (); value = None; readers = [] }

    let fill t v =
      P.Lock.lock t.spin;
      match t.value with
      | Some _ ->
          P.Lock.unlock t.spin;
          raise Already_filled
      | None ->
          t.value <- Some v;
          let readers = t.readers in
          t.readers <- [];
          P.Lock.unlock t.spin;
          List.iter
            (fun (k, tid) -> Park.wake ~on:"sync.ivar" (k, v, tid))
            readers

    let read t =
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          match t.value with
          | Some v ->
              P.Lock.unlock t.spin;
              Engine.throw k v
          | None ->
              let tid = S.id () in
              t.readers <- (k, tid) :: t.readers;
              Park.park ~on:"sync.ivar" t.spin tid)

    let poll t =
      P.Lock.lock t.spin;
      let v = t.value in
      P.Lock.unlock t.spin;
      v
  end

  module Mvar = struct
    type 'a t = {
      spin : P.Lock.mutex_lock;
      mutable value : 'a option;
      takers : ('a Engine.cont * int) Queues.Fifo_queue.queue;
      (* A blocked putter: its value and its parked continuation. *)
      putters : ('a * (unit Engine.cont * int)) Queues.Fifo_queue.queue;
    }

    let create () =
      {
        spin = P.Lock.mutex_lock ();
        value = None;
        takers = Queues.Fifo_queue.create ();
        putters = Queues.Fifo_queue.create ();
      }

    let put t v =
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          match Queues.Fifo_queue.deq_opt t.takers with
          | Some (taker, tid) ->
              P.Lock.unlock t.spin;
              Park.wake ~on:"sync.mvar" (taker, v, tid);
              Engine.throw k ()
          | None ->
              if t.value = None then begin
                t.value <- Some v;
                P.Lock.unlock t.spin;
                Engine.throw k ()
              end
              else begin
                let tid = S.id () in
                Queues.Fifo_queue.enq t.putters (v, (k, tid));
                Park.park ~on:"sync.mvar" t.spin tid
              end)

    let take t =
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          match t.value with
          | Some v ->
              (* Refill from a blocked putter, if any. *)
              (match Queues.Fifo_queue.deq_opt t.putters with
              | Some (pv, putter) ->
                  t.value <- Some pv;
                  P.Lock.unlock t.spin;
                  Park.wake_unit ~on:"sync.mvar" putter
              | None ->
                  t.value <- None;
                  P.Lock.unlock t.spin);
              Engine.throw k v
          | None ->
              let tid = S.id () in
              Queues.Fifo_queue.enq t.takers (k, tid);
              Park.park ~on:"sync.mvar" t.spin tid)

    let try_take t =
      P.Lock.lock t.spin;
      match t.value with
      | Some v ->
          (match Queues.Fifo_queue.deq_opt t.putters with
          | Some (pv, putter) ->
              t.value <- Some pv;
              P.Lock.unlock t.spin;
              Park.wake_unit ~on:"sync.mvar" putter
          | None ->
              t.value <- None;
              P.Lock.unlock t.spin);
          Some v
      | None ->
          P.Lock.unlock t.spin;
          None
  end

  module Semaphore = struct
    include Park.Semaphore

    let create n = create ~on:"sync.semaphore" n
  end

  module Rwlock = struct
    type t = {
      spin : P.Lock.mutex_lock;
      mutable readers : int; (* active readers *)
      mutable writing : bool;
      mutable waiting_writers : int;
      wait_readers : (unit Engine.cont * int) Queues.Fifo_queue.queue;
      wait_writers : (unit Engine.cont * int) Queues.Fifo_queue.queue;
    }

    let create () =
      {
        spin = P.Lock.mutex_lock ();
        readers = 0;
        writing = false;
        waiting_writers = 0;
        wait_readers = Queues.Fifo_queue.create ();
        wait_writers = Queues.Fifo_queue.create ();
      }

    let read_lock t =
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          if (not t.writing) && t.waiting_writers = 0 then begin
            t.readers <- t.readers + 1;
            P.Lock.unlock t.spin;
            Engine.throw k ()
          end
          else begin
            let tid = S.id () in
            Queues.Fifo_queue.enq t.wait_readers (k, tid);
            Park.park ~on:"sync.rwlock" t.spin tid
          end)

    (* Called with the spin lock held; wakes whoever may proceed. *)
    let promote t =
      if (not t.writing) && t.readers = 0 then
        match Queues.Fifo_queue.deq_opt t.wait_writers with
        | Some w ->
            t.waiting_writers <- t.waiting_writers - 1;
            t.writing <- true;
            P.Lock.unlock t.spin;
            Park.wake_unit ~on:"sync.rwlock" w
        | None ->
            let rec wake acc =
              match Queues.Fifo_queue.deq_opt t.wait_readers with
              | Some w ->
                  t.readers <- t.readers + 1;
                  wake (w :: acc)
              | None -> acc
            in
            let ws = wake [] in
            P.Lock.unlock t.spin;
            List.iter (Park.wake_unit ~on:"sync.rwlock") ws
      else P.Lock.unlock t.spin

    let read_unlock t =
      P.Lock.lock t.spin;
      if t.readers <= 0 then begin
        P.Lock.unlock t.spin;
        invalid_arg "Rwlock.read_unlock: no active reader"
      end
      else begin
        t.readers <- t.readers - 1;
        promote t
      end

    let write_lock t =
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          if (not t.writing) && t.readers = 0 then begin
            t.writing <- true;
            P.Lock.unlock t.spin;
            Engine.throw k ()
          end
          else begin
            let tid = S.id () in
            t.waiting_writers <- t.waiting_writers + 1;
            Queues.Fifo_queue.enq t.wait_writers (k, tid);
            Park.park ~on:"sync.rwlock" t.spin tid
          end)

    let write_unlock t =
      P.Lock.lock t.spin;
      if not t.writing then begin
        P.Lock.unlock t.spin;
        invalid_arg "Rwlock.write_unlock: not write-locked"
      end
      else begin
        t.writing <- false;
        promote t
      end

    let with_read t f =
      read_lock t;
      match f () with
      | v ->
          read_unlock t;
          v
      | exception e ->
          read_unlock t;
          raise e

    let with_write t f =
      write_lock t;
      match f () with
      | v ->
          write_unlock t;
          v
      | exception e ->
          write_unlock t;
          raise e
  end

  module Barrier = struct
    type t = {
      spin : P.Lock.mutex_lock;
      parties : int;
      mutable arrived : int;
      mutable waiters : (unit Engine.cont * int) list;
    }

    let create ~parties =
      if parties <= 0 then invalid_arg "Barrier.create";
      { spin = P.Lock.mutex_lock (); parties; arrived = 0; waiters = [] }

    let await t =
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          let index = t.arrived in
          t.arrived <- t.arrived + 1;
          if t.arrived = t.parties then begin
            let ws = t.waiters in
            t.waiters <- [];
            t.arrived <- 0;
            P.Lock.unlock t.spin;
            List.iter (Park.wake_unit ~on:"sync.barrier") ws;
            Engine.throw k index
          end
          else begin
            let tid = S.id () in
            t.waiters <- (Kont_util.unit_cont_of k index, tid) :: t.waiters;
            Park.park ~on:"sync.barrier" t.spin tid
          end)
  end

  (* Multilisp-style futures (the paper's §7 comparison point): a future is
     a forked thread plus a write-once result cell. *)
  module Future = struct
    type 'a t = { cell : 'a Ivar.t; mutable sparked : bool }

    let spawn f =
      let cell = Ivar.create () in
      S.fork (fun () -> Ivar.fill cell (f ()));
      { cell; sparked = true }

    let of_value v =
      let cell = Ivar.create () in
      Ivar.fill cell v;
      { cell; sparked = false }

    let touch t = Ivar.read t.cell
    let poll t = Ivar.poll t.cell

    let map f t =
      let cell = Ivar.create () in
      S.fork (fun () -> Ivar.fill cell (f (Ivar.read t.cell)));
      { cell; sparked = true }
  end

  module Countdown = struct
    type t = {
      spin : P.Lock.mutex_lock;
      mutable count : int;
      mutable waiters : (unit Engine.cont * int) list;
    }

    let create n =
      if n < 0 then invalid_arg "Countdown.create";
      { spin = P.Lock.mutex_lock (); count = n; waiters = [] }

    let count_down t =
      P.Lock.lock t.spin;
      if t.count > 0 then t.count <- t.count - 1;
      let ws = if t.count = 0 then t.waiters else [] in
      if t.count = 0 then t.waiters <- [];
      P.Lock.unlock t.spin;
      List.iter (Park.wake_unit ~on:"sync.countdown") ws

    let await t =
      Engine.callcc (fun k ->
          P.Lock.lock t.spin;
          if t.count = 0 then begin
            P.Lock.unlock t.spin;
            Engine.throw k ()
          end
          else begin
            let tid = S.id () in
            t.waiters <- (k, tid) :: t.waiters;
            Park.park ~on:"sync.countdown" t.spin tid
          end)

    let remaining t =
      P.Lock.lock t.spin;
      let n = t.count in
      P.Lock.unlock t.spin;
      n
  end
end
