(** Dense multi-layer perceptron with manual backprop — the
    neural-network substrate for the distributed-training studies and the
    Table 3 ensemble combiners. Tanh hidden layers, softmax cross-entropy
    output, SGD with optional momentum.

    A [t] owns its activation and delta scratch, sized once by {!create}:
    per example, {!backward} allocates only its boxed loss, and
    {!predict} nothing. Every call, prediction included, writes that
    scratch, so a [t] must not be shared across domains; give each
    domain its own {!clone}. *)

type t

val create : rng:Icoe_util.Rng.t -> int array -> t
(** [create ~rng [|in; hidden...; out|]] with He-scaled init. *)

val num_params : t -> int

val get_params : t -> float array
(** Flattened parameters (layer-major, weight rows then biases). *)

val set_params : t -> float array -> unit

val grads : t -> float array
(** Accumulated gradients, flattened in {!get_params} order. *)

val copy_grads : src:t -> dst:t -> unit
(** Overwrite [dst]'s accumulated gradients with [src]'s (same sizes). *)

val predict_proba : t -> float array -> float array
(** Class probabilities for one input (a fresh array). *)

val predict : t -> float array -> int
(** Index of the most probable class. *)

val zero_grads : t -> unit

val backward : t -> float array -> label:int -> float
(** Accumulate gradients of the cross-entropy for one example; returns
    the loss. *)

val sgd_step : ?momentum:float -> ?weight_decay:float -> t -> lr:float -> batch:int -> unit
(** Apply accumulated gradients (scaled by 1/batch) and clear them. *)

val train_batch :
  ?momentum:float -> t -> lr:float -> float array array -> int array -> float
(** One mini-batch step; returns the mean loss. *)

val accuracy : t -> float array array -> int array -> float
val eval_loss : t -> float array array -> int array -> float

val clone : t -> t
(** Copy of the weights and biases; gradients and momentum start at
    zero. *)
