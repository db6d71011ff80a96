(** KKβ over message passing: the paper's closing open question,
    answered by composition.

    KKβ uses only single-writer atomic registers ([next\[p\]] and row
    [p] of [done] are written by process [p] alone), so running the
    {e unchanged} algorithm on {!Abd}-emulated registers yields an
    at-most-once algorithm for the asynchronous message-passing model
    that tolerates up to m − 1 client crashes and any minority of
    server crashes, with the same effectiveness bound
    n − (β + m − 2) (Theorem 4.4 transfers because the emulated
    registers are atomic and the emulation is wait-free for clients
    while a server majority survives).

    The client body is {!Core.Kk_direct}, the one direct-style
    transcription of Fig. 2 (Fig. 3 for IterativeKK) that the
    multicore runner also runs; here every shared access goes through
    an ABD operation. *)

type outcome = Abd.outcome = {
  dos : (int * int) list;
  completed : int list;
  stuck : int list;
  crashed_clients : int list;
  deliveries : int;  (** message complexity of the whole run *)
}

val register_count : n:int -> m:int -> int
(** Registers the emulation needs: [m] announcement cells plus the
    m × n done matrix. *)

val kk_body : n:int -> m:int -> beta:int -> pid:int -> Abd.body
(** Process [pid]'s program: {!Core.Kk_direct.run} against
    [read]/[write], on register indices [next\[q\] = q] and
    [done\[q\]\[c\] = m + (q−1)·n + c]. *)

val run_kk :
  ?crash_plan:(int * [ `Client of int | `Server of int ]) list ->
  ?max_deliveries:int ->
  servers:int ->
  n:int ->
  m:int ->
  beta:int ->
  rng:Util.Prng.t ->
  unit ->
  outcome
(** Run the full system: [servers] replicas, [m] KKβ clients, [n]
    jobs, random (adversarial) message delivery.
    @raise Invalid_argument unless [1 <= m <= n], [beta >= 1] and
    [servers >= 1]. *)

val run_iterative :
  ?crash_plan:(int * [ `Client of int | `Server of int ]) list ->
  ?max_deliveries:int ->
  servers:int ->
  n:int ->
  m:int ->
  epsilon_inv:int ->
  rng:Util.Prng.t ->
  unit ->
  outcome
(** The full IterativeKK(ε) (at-most-once variant, §6) over message
    passing: one register bank per super-job level, plus each level's
    shared termination flag — a genuinely multi-writer register,
    emulated with the two-phase MW-ABD protocol.  [dos] reports
    individual jobs (super-jobs expanded). *)
