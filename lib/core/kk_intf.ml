(* Interface-only module: the mode type and the signature one KKβ
   instantiation presents, shared between the functor and its Ostree
   instantiation.  [set] is the persistent set type of the boundary
   only: the process keeps FREE and TRY in a [Freeset].  Documentation
   lives in kk.mli. *)

type mode = Standalone | Iter_step of { keep_try : bool }

module type S = sig
  type set

  type shared

  val make_shared :
    metrics:Shm.Metrics.t ->
    m:int ->
    capacity:int ->
    ?with_flag:bool ->
    name:string ->
    unit ->
    shared

  val flag_value : shared -> int

  type t

  val create :
    shared:shared ->
    pid:int ->
    beta:int ->
    policy:Policy.t ->
    free:set ->
    ?collision:Collision.t ->
    ?perform:(p:int -> int -> Shm.Event.t list) ->
    ?perform_work:(int -> int) ->
    ?perform_footprint:(int -> Shm.Footprint.t) ->
    ?mutant_skip_check:bool ->
    ?mutant_skip_recovery_mark:bool ->
    ?verbose:bool ->
    ?provenance:bool ->
    mode:mode ->
    unit ->
    t

  val handle : t -> Shm.Automaton.handle

  val restart : t -> bool

  val footprint : t -> Shm.Footprint.t

  val result : t -> set option

  val do_count : t -> int

  val restart_count : t -> int

  val collisions_detected : t -> int

  val status_name : t -> string

  val free_set : t -> set

  val try_set : t -> set

  val done_set : t -> set
  (** Derived: initial FREE \ FREE, built on each call.  No DONE set
      is kept, since a job enters DONE exactly when it leaves FREE. *)

  val announced : t -> int
end
