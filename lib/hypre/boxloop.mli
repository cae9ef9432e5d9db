(** Structured-solver BoxLoops.

    hypre's structured solvers are "abstracted with macros called BoxLoops
    ... completely restructured to allow ports of CUDA, OpenMP 4.5, RAJA
    and Kokkos into the isolated BoxLoops". A box loop sweeps an index box
    under a pluggable execution context, so swapping the backend is a
    one-argument change. The body is called once per row, not per cell,
    so the loop construct costs nothing per element. *)

type box = { ilo : int; ihi : int; jlo : int; jhi : int }
(** Inclusive index ranges. A box with [ihi < ilo] or [jhi < jlo] is
    empty. *)

val box_size : box -> int
(** Number of cells; 0 for an empty box. *)

val boxloop2 :
  Prog.Exec.ctx ->
  ?phase:string ->
  flops_per:float ->
  bytes_per:float ->
  box ->
  (int -> int -> int -> unit) ->
  unit
(** [boxloop2 ctx ~flops_per ~bytes_per b f] sweeps the box row by row:
    [f j b.ilo b.ihi] once per row, [j] ascending, so a body that loops
    [i = ilo .. ihi] visits the cells in row-major order. An empty box
    never calls [f]. Then one {!Prog.Exec.charge} of [box_size b]
    elements under [phase] (default ["boxloop"]): one launch per loop,
    also for an empty box. *)

(** A 5-point structured Poisson smoother written entirely through
    boxloops (the retargetable structured-solver shape). *)
module Struct_solver : sig
  type t = {
    nx : int;
    ny : int;
    u : float array;
    b : float array;
    scratch : float array;
  }

  val create : int -> int -> t
  (** [create nx ny] is a zeroed (nx x ny) grid whose outer ring is the
      Dirichlet wall. Raises [Invalid_argument] if [nx < 3] or [ny < 3]
      (no interior). *)

  val idx : t -> int -> int -> int
  val interior : t -> box
  val jacobi_sweep : Prog.Exec.ctx -> ?w:float -> t -> unit
  val residual_norm : Prog.Exec.ctx -> t -> float

  val solve : ?tol:float -> ?max_sweeps:int -> Prog.Exec.ctx -> t -> int * float
  (** Iterate to relative tolerance: (sweeps, final relative residual). *)
end
