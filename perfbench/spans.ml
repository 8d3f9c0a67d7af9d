(* Bounded span store for the traced run.

   Two kinds of span are kept:
   - host spans: wall-clock intervals of the benchmark's own top-level
     phases (set-up, each cell or rung, the reduction into results), in
     host nanoseconds;
   - call spans: one per shim call across the [Lock] or [Work] boundary,
     (proc, layer, op, start, end) in the platform's own clock — virtual
     cycles on the simulator, host nanoseconds on real backends.

   Memory stays bounded: each platform instance records call spans into
   fixed per-proc rings (the last [ring] calls per proc survive), a cell's
   rings are folded into this store when the cell ends, and the store
   itself drops spans past [capacity], counting what it dropped.  The
   whole store is written out once, when the run ends. *)

type host = { name : string; tag : string; t0 : int; t1 : int }

type call = {
  cell : string;
  proc : int;
  layer : string;
  op : string;
  clock : string;
  start : int;
  stop : int;
}

type t = {
  capacity : int;
  mutable hosts : host list;
  mutable calls : call list;
  mutable kept : int;
  mutable dropped : int;
}

let create ~capacity = { capacity; hosts = []; calls = []; kept = 0; dropped = 0 }
let host_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let host_span t ~name ~tag f =
  let t0 = host_ns () in
  Fun.protect f ~finally:(fun () ->
      t.hosts <- { name; tag; t0; t1 = host_ns () } :: t.hosts)

let add_call t c =
  if t.kept < t.capacity then begin
    t.calls <- c :: t.calls;
    t.kept <- t.kept + 1
  end
  else t.dropped <- t.dropped + 1

let note_dropped t n = t.dropped <- t.dropped + n

let write t path =
  let oc = open_out path in
  List.iter
    (fun h ->
      Printf.fprintf oc
        "{\"kind\":\"host\",\"name\":%S,\"tag\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
        h.name h.tag h.t0 h.t1)
    (List.rev t.hosts);
  List.iter
    (fun c ->
      Printf.fprintf oc
        "{\"kind\":\"call\",\"cell\":%S,\"proc\":%d,\"layer\":%S,\"op\":%S,\
         \"clock\":%S,\"start\":%d,\"end\":%d}\n"
        c.cell c.proc c.layer c.op c.clock c.start c.stop)
    (List.rev t.calls);
  Printf.fprintf oc "{\"kind\":\"summary\",\"calls_kept\":%d,\"calls_dropped\":%d}\n"
    t.kept t.dropped;
  close_out oc
