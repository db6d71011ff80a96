type kind = Read | Write

type op = {
  proc : int;
  reg : int;
  kind : kind;
  value : int;
  inv : int;
  resp : int option;
}

type condition = Unwritten | Future_read | Stale_read | New_old_inversion

type violation = { condition : condition; read : op; witness : op option }

let condition_name = function
  | Unwritten -> "unwritten value"
  | Future_read -> "future read"
  | Stale_read -> "stale read"
  | New_old_inversion -> "new/old inversion"

let resp_or_inf o = Option.value o.resp ~default:max_int

let pp_op ppf o =
  Format.fprintf ppf "%s by p%d of %d [%d, %s]"
    (match o.kind with Read -> "read" | Write -> "write")
    o.proc o.value o.inv
    (match o.resp with Some t -> string_of_int t | None -> "pending")

let pp_violation ppf v =
  Format.fprintf ppf "register %d: %s: %a" v.read.reg
    (condition_name v.condition) pp_op v.read;
  Option.iter (Format.fprintf ppf "; against %a" pp_op) v.witness

(* One register's history.  [writes] are in invocation order, which is
   also their order of effect: they do not overlap.  A read returning
   write [k] (0 = the initial value) is checked against the number of
   writes that completed before it was invoked, found by binary search
   on their (ascending) response times, and against the newest write
   returned by any read that responded before it was invoked, found by
   a sweep over the reads sorted by response time. *)
let check_register ~init writes reads =
  let writes = Array.of_list (List.sort (fun a b -> compare a.inv b.inv) writes) in
  let nw = Array.length writes in
  let index = Hashtbl.create (nw + 1) in
  Array.iteri
    (fun i w ->
      if w.value = init || Hashtbl.mem index w.value then
        invalid_arg "Atomicity.check: a written value not unique in its register";
      if i > 0 then begin
        let prev = writes.(i - 1) in
        if prev.proc <> w.proc then
          invalid_arg "Atomicity.check: a register with two writers";
        if resp_or_inf prev >= w.inv then
          invalid_arg "Atomicity.check: overlapping writes"
      end;
      Hashtbl.replace index w.value (i + 1))
    writes;
  (* writes that completed strictly before [t] *)
  let completed_before t =
    let lo = ref 0 and hi = ref nw in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if resp_or_inf writes.(mid) < t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let violations = ref [] in
  let flag condition read witness =
    violations := { condition; read; witness } :: !violations
  in
  (* (read, index of the write it returned) for reads of known values *)
  let known =
    List.filter_map
      (fun r ->
        let k =
          if r.value = init then Some 0 else Hashtbl.find_opt index r.value
        in
        match k with
        | None ->
            flag Unwritten r None;
            None
        | Some k -> Some (r, k))
      reads
  in
  let sorted_by key =
    Array.of_list (List.sort (fun (a, _) (b, _) -> compare (key a) (key b)) known)
  in
  let by_inv = sorted_by (fun r -> r.inv) and by_resp = sorted_by resp_or_inf in
  let newest = ref (-1) and newest_read = ref None and j = ref 0 in
  Array.iter
    (fun (r, k) ->
      let resp = resp_or_inf r in
      if k > 0 && writes.(k - 1).inv > resp then
        flag Future_read r (Some writes.(k - 1));
      let kmin = completed_before r.inv in
      if k < kmin then flag Stale_read r (Some writes.(kmin - 1));
      while !j < Array.length by_resp && resp_or_inf (fst by_resp.(!j)) < r.inv do
        let r', k' = by_resp.(!j) in
        if k' > !newest then begin
          newest := k';
          newest_read := Some r'
        end;
        incr j
      done;
      if k < !newest then flag New_old_inversion r !newest_read)
    by_inv;
  List.rev !violations

let check ?(init = 0) history =
  let regs = Hashtbl.create 64 in
  List.iter
    (fun o ->
      (match o.resp with
      | Some t when t < o.inv ->
          invalid_arg "Atomicity.check: a response before its invocation"
      | _ -> ());
      let w, r = Option.value (Hashtbl.find_opt regs o.reg) ~default:([], []) in
      match (o.kind, o.resp) with
      | Write, _ -> Hashtbl.replace regs o.reg (o :: w, r)
      | Read, Some _ -> Hashtbl.replace regs o.reg (w, o :: r)
      | Read, None -> Hashtbl.replace regs o.reg (w, r))
    history;
  Hashtbl.fold (fun reg wr acc -> (reg, wr) :: acc) regs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map (fun (_, (writes, reads)) -> check_register ~init writes reads)
