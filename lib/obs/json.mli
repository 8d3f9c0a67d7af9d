(** The one JSON emitter.

    Every JSON byte the repository writes — the JSONL trace lines of
    {!Event.to_json} and the [BENCH_*.json] documents — is built as a
    {!t} and printed here, so quoting, escaping, comma placement and
    number formatting are decided once.  There is no parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
      (** [Float (digits, x)] prints [x] in fixed notation with [digits]
          digits after the point (["%.*f"]), so a value re-parses to the
          float the text shows; a non-finite [x] prints [null]. *)
  | String of string
      (** Printed verbatim, so UTF-8 passes through, except for the
          double quote and the backslash (escaped with a backslash) and
          control bytes below 0x20 (escaped as [\u00XX]). *)
  | List of t list
  | Obj of (string * t) list  (** members in the given order *)

val to_string : t -> string
(** Compact rendering, no whitespace: [{"ts":1,"ev":"fork","xs":[1,2]}]. *)

val document : schema:string -> (string * t) list -> string
(** A [BENCH_*.json] document: an object whose first member is
    ["schema": schema], followed by [members].  Each top-level member is
    on its own line, and each element of a non-empty top-level array on
    its own line, so diffs of committed baselines stay readable; deeper
    values are compact.  Ends with a newline. *)

val write : string -> schema:string -> (string * t) list -> unit
(** [write path ~schema members] writes {!document} to [path]. *)
