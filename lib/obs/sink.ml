type kind = Span | Instant | Counter | Log

let kind_to_string = function
  | Span -> "span"
  | Instant -> "instant"
  | Counter -> "counter"
  | Log -> "log"

type record = {
  ts : int;
  dur : int;
  pid : int;
  kind : kind;
  name : string;
  args : (string * Json.t) list;
}

let record ?(dur = 0) ?(pid = 0) ?(args = []) ~ts ~kind name =
  { ts; dur; pid; kind; name; args }

let record_to_json r =
  let base =
    [
      ("ts", Json.Int r.ts);
      ("dur", Json.Int r.dur);
      ("pid", Json.Int r.pid);
      ("kind", Json.String (kind_to_string r.kind));
      ("name", Json.String r.name);
    ]
  in
  Json.Obj (if r.args = [] then base else base @ [ ("args", Json.Obj r.args) ])

type t = Null | Memory of { cap : int; q : record Queue.t }

let null = Null

let default_capacity = 65_536

let memory ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Sink.memory: capacity must be >= 1";
  Memory { cap = capacity; q = Queue.create () }

let is_null = function Null -> true | Memory _ -> false

let emit t r =
  match t with
  | Null -> ()
  | Memory m ->
      Queue.push r m.q;
      if Queue.length m.q > m.cap then ignore (Queue.pop m.q)

let records = function
  | Memory m -> List.of_seq (Queue.to_seq m.q)
  | Null -> []
