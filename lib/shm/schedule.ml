type t = { name : string; choose : alive:int array -> int }

let name t = t.name

let choose t ~alive =
  if Array.length alive = 0 then invalid_arg "Schedule.choose: no live process";
  t.choose ~alive

(* Smallest live pid strictly greater than [p], wrapping around.  A
   toplevel recursion: a local one would allocate a closure per call. *)
let rec next_from alive p i =
  if i >= Array.length alive then alive.(0)
  else if alive.(i) > p then alive.(i)
  else next_from alive p (i + 1)

let next_after alive p = next_from alive p 0

let round_robin () =
  let last = ref 0 in
  {
    name = "round-robin";
    choose =
      (fun ~alive ->
        let p = next_after alive !last in
        last := p;
        p);
  }

let random rng =
  {
    name = "random";
    choose = (fun ~alive -> alive.(Util.Prng.int rng (Array.length alive)));
  }

let bursty rng ~max_burst =
  if max_burst < 1 then invalid_arg "Schedule.bursty: max_burst must be >= 1";
  let current = ref None in
  let remaining = ref 0 in
  {
    name = Printf.sprintf "bursty(%d)" max_burst;
    choose =
      (fun ~alive ->
        let still_alive p = Array.exists (fun q -> q = p) alive in
        (match !current with
        | Some p when !remaining > 0 && still_alive p -> ()
        | _ ->
            current := Some alive.(Util.Prng.int rng (Array.length alive));
            remaining := 1 + Util.Prng.int rng max_burst);
        decr remaining;
        match !current with Some p -> p | None -> assert false);
  }

let biased rng ~favourite ~weight =
  if weight < 1 then invalid_arg "Schedule.biased: weight must be >= 1";
  {
    name = Printf.sprintf "biased(p%d x%d)" favourite weight;
    choose =
      (fun ~alive ->
        let fav_alive = Array.exists (fun q -> q = favourite) alive in
        if not fav_alive then alive.(Util.Prng.int rng (Array.length alive))
        else begin
          (* favourite gets [weight] tickets, everyone else one each *)
          let others = Array.length alive - 1 in
          let ticket = Util.Prng.int rng (weight + others) in
          if ticket < weight then favourite
          else begin
            let k = ticket - weight in
            (* k-th live process that is not the favourite *)
            let rec pick i k =
              if alive.(i) = favourite then pick (i + 1) k
              else if k = 0 then alive.(i)
              else pick (i + 1) (k - 1)
            in
            pick 0 k
          end
        end);
  }

let custom ~name choose = { name; choose }

let recording inner =
  let picks = ref [] in
  let wrapped =
    {
      name = inner.name ^ "+rec";
      choose =
        (fun ~alive ->
          let p = inner.choose ~alive in
          picks := p :: !picks;
          p);
    }
  in
  (wrapped, fun () -> List.rev !picks)

let well_formed ~m picks = List.for_all (fun p -> p >= 1 && p <= m) picks

let fixed seq =
  let pending = ref seq in
  let fallback = round_robin () in
  {
    name = "fixed";
    choose =
      (fun ~alive ->
        let still_alive p = Array.exists (fun q -> q = p) alive in
        let rec drain () =
          match !pending with
          | [] -> fallback.choose ~alive
          | p :: rest ->
              pending := rest;
              if still_alive p then p else drain ()
        in
        drain ());
  }
