(** The forall/reduce layer: a miniature RAJA.

    [forall] really executes its body (the numerics are genuine) and
    charges the context clock with the roofline price of the loop under
    the context's policy and device, including launch overhead. Kernel
    fusion is then a first-class, measurable transformation: one fused
    [forall] pays one launch where k separate ones pay k. *)

type ctx = private {
  policy : Policy.t;
  device : Hwsim.Device.t;
  link : Hwsim.Link.t;
  clock : Hwsim.Clock.t;
  flop_rate : float;  (** the policy's compute roof on the device, flop/s *)
  byte_rate : float;  (** the policy's memory roof on the device, byte/s *)
  launch_s : float;  (** launch overhead of one loop under the policy *)
  combine_s : float;  (** a reduction's log-depth tree-combine term *)
  dt : Hwsim.Clock.cell;  (** reused to hand each charge to the clock *)
  mutable launches : int;
}
(** Built only by {!make_ctx}, which prices the policy on the device
    once; the rates stay consistent with [policy] and [device]. *)

val make_ctx :
  ?link:Hwsim.Link.t ->
  policy:Policy.t ->
  device:Hwsim.Device.t ->
  clock:Hwsim.Clock.t ->
  unit ->
  ctx

val on_v100 : ?policy:Policy.t -> Hwsim.Clock.t -> ctx
(** Context for one Sierra V100 (default policy CUDA). *)

val on_p9 : ?policy:Policy.t -> Hwsim.Clock.t -> ctx
(** Context for a P9 socket (default policy OpenMP over all cores). *)

val charge : ctx -> phase:string -> n:int -> flops_per:float -> bytes_per:float -> unit
(** Price an n-element loop without running a body (for callers that
    executed the work themselves). *)

val charge_reduce :
  ctx -> phase:string -> n:int -> flops_per:float -> bytes_per:float -> unit
(** Price an n-element reduction without running a body: [charge] plus
    the log-depth combine term, the exact charge of {!reduce}. *)

val forall :
  ctx -> ?phase:string -> n:int -> flops_per:float -> bytes_per:float ->
  (int -> unit) -> unit
(** Run the body for every index and charge simulated time. *)

val reduce :
  ctx -> ?phase:string -> n:int -> flops_per:float -> bytes_per:float ->
  init:'a -> combine:('a -> 'a -> 'a) -> (int -> 'a) -> 'a
(** Fold over indices; charged like a forall plus a log-depth combine. *)

val transfer : ctx -> ?phase:string -> bytes:float -> unit -> unit
(** Price a host<->device transfer over the context's link. *)

val elapsed : ctx -> float
