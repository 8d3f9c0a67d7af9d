type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The one place commas go: [lo], the items separated by [sep], [hi]. *)
let add_seq b (lo, sep, hi) item xs =
  Buffer.add_string b lo;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      item x)
    xs;
  Buffer.add_string b hi

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float (digits, x) when Float.is_finite x -> Printf.bprintf b "%.*f" digits x
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_string b s
  | List items -> add_seq b ("[", ",", "]") (add b) items
  | Obj members -> add_seq b ("{", ",", "}") (add_member b ":") members

and add_member b colon (k, v) =
  add_string b k;
  Buffer.add_string b colon;
  add b v

let to_string v =
  let b = Buffer.create 64 in
  add b v;
  Buffer.contents b

(* Top-level members one per line; a non-empty array member puts each
   element on its own line.  Everything below that depth is compact. *)
let document ~schema members =
  let b = Buffer.create 4096 in
  add_seq b ("{\n  ", ",\n  ", "\n}\n")
    (function
      | k, List (_ :: _ as items) ->
          add_string b k;
          Buffer.add_string b ": ";
          add_seq b ("[\n    ", ",\n    ", "\n  ]") (add b) items
      | member -> add_member b ": " member)
    (("schema", String schema) :: members);
  Buffer.contents b

let write path ~schema members =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (document ~schema members))
