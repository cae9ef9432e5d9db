(** Dense multi-layer perceptron with manual backprop — the neural-network
    substrate for the distributed-training studies and the Table 3
    ensemble combiners. Deliberately simple: tanh hidden layers, softmax
    cross-entropy output, plain SGD with optional momentum.

    Storage is flat: each layer's weights, gradients and momentum are one
    row-major [nout * nin] float array, and the activation/delta scratch
    is sized once in [create], so a training step allocates nothing but
    its boxed per-example losses.
    Every loop keeps the summation order of the original per-row
    formulation (bias first, inputs ascending; deltas accumulated over
    outputs ascending), so every float is bit-identical to it.

    Why float arrays and not [Icoe_util.Fbuf]: both hold unboxed
    doubles, but each Bigarray access also loads the buffer's data
    pointer, and these inner loops are short enough for that to show.
    Training the Table 3 combiner shapes ([|24; 16; 8|] and [|24; 8|])
    with the same loops over Fbuf took 15–24% longer (OCaml 5.1.1
    without flambda, 2-vCPU x86-64 VM). *)

external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

type layer = {
  nin : int;
  nout : int;
  w : float array;  (** [o * nin + i] *)
  b : float array;
  gw : float array;  (** accumulated gradients *)
  gb : float array;
  mw : float array;  (** momentum buffers *)
  mb : float array;
}

type t = {
  sizes : int array;  (** [in; hidden...; out] *)
  layers : layer array;
  acts : float array array;
      (** [acts.(0)] is the current input, [acts.(l + 1)] layer [l]'s
          output; the last is pre-softmax *)
  probs : float array;  (** softmax of the last activation *)
  delta : float array;  (** backprop delta, widest layer *)
  nd : float array;  (** delta propagated to a layer's input *)
}

let zeros n = Array.make n 0.0

let make_layer ~nin ~nout w =
  {
    nin;
    nout;
    w;
    b = zeros nout;
    gw = zeros (nout * nin);
    gb = zeros nout;
    mw = zeros (nout * nin);
    mb = zeros nout;
  }

let of_layers sizes layers =
  let widest = Array.fold_left max 0 sizes in
  {
    sizes;
    layers;
    acts = Array.map zeros sizes;
    probs = zeros sizes.(Array.length sizes - 1);
    delta = zeros widest;
    nd = zeros widest;
  }

let create ~(rng : Icoe_util.Rng.t) sizes =
  assert (Array.length sizes >= 2);
  let layers =
    Array.init (Array.length sizes - 1) (fun l ->
        let nin = sizes.(l) and nout = sizes.(l + 1) in
        let scale = sqrt (2.0 /. float_of_int nin) in
        make_layer ~nin ~nout
          (Array.init (nout * nin) (fun _ ->
               scale *. Icoe_util.Rng.gaussian rng)))
  in
  of_layers sizes layers

let num_params t =
  Array.fold_left (fun acc l -> acc + (l.nout * (1 + l.nin))) 0 t.layers

(* the flattening order shared by parameters and gradients: per layer,
   weight rows then biases *)
let flatten t pick =
  Array.concat
    (List.concat_map
       (fun l ->
         let w, b = pick l in
         [ w; b ])
       (Array.to_list t.layers))

(** Flatten / restore parameters (for averaging in KAVG and ASGD). *)
let get_params t = flatten t (fun l -> (l.w, l.b))

let grads t = flatten t (fun l -> (l.gw, l.gb))

let set_params t buf =
  let k = ref 0 in
  Array.iter
    (fun l ->
      Array.blit buf !k l.w 0 (Array.length l.w);
      k := !k + Array.length l.w;
      Array.blit buf !k l.b 0 l.nout;
      k := !k + l.nout)
    t.layers

(* forward pass into [t.acts], then softmax into [t.probs] *)
let forward t x =
  let nl = Array.length t.layers in
  assert (Array.length x = t.sizes.(0));
  t.acts.(0) <- x;
  for l = 0 to nl - 1 do
    let lay = t.layers.(l) in
    let nin = lay.nin and w = lay.w and b = lay.b in
    let a_in = t.acts.(l) and a_out = t.acts.(l + 1) in
    let hidden = l < nl - 1 in
    for o = 0 to lay.nout - 1 do
      let row = o * nin in
      let s = ref (get b o) in
      for i = 0 to nin - 1 do
        s := !s +. (get w (row + i) *. get a_in i)
      done;
      set a_out o (if hidden then tanh !s else !s)
    done
  done;
  let z = t.acts.(nl) and p = t.probs in
  let n = Array.length z in
  let mx = ref neg_infinity in
  for i = 0 to n - 1 do
    let v = get z i in
    if not (!mx >= v) then mx := v
  done;
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    let e = exp (get z i -. !mx) in
    set p i e;
    s := !s +. e
  done;
  for i = 0 to n - 1 do
    set p i (get p i /. !s)
  done

let clamp_prob p = if 1e-12 >= p then 1e-12 else p

(** Class probabilities for input [x]. *)
let predict_proba t x =
  forward t x;
  Array.copy t.probs

let predict t x =
  forward t x;
  let p = t.probs in
  let best = ref 0 in
  for i = 1 to Array.length p - 1 do
    if get p i > get p !best then best := i
  done;
  !best

let zero_grads t =
  Array.iter
    (fun l ->
      Array.fill l.gw 0 (Array.length l.gw) 0.0;
      Array.fill l.gb 0 l.nout 0.0)
    t.layers

(** Accumulate gradients of softmax cross-entropy for one example;
    returns the loss. *)
let backward t x ~label =
  let nl = Array.length t.layers in
  forward t x;
  let p = t.probs and delta = t.delta and nd = t.nd in
  let loss = -.log (clamp_prob p.(label)) in
  (* output delta *)
  for i = 0 to Array.length p - 1 do
    set delta i (get p i -. if i = label then 1.0 else 0.0)
  done;
  for l = nl - 1 downto 0 do
    let lay = t.layers.(l) in
    let nin = lay.nin and nout = lay.nout in
    let w = lay.w and gw = lay.gw and gb = lay.gb in
    let a_in = t.acts.(l) in
    (* grads *)
    for o = 0 to nout - 1 do
      let d = get delta o in
      let row = o * nin in
      set gb o (get gb o +. d);
      for i = 0 to nin - 1 do
        set gw (row + i) (get gw (row + i) +. (d *. get a_in i))
      done
    done;
    (* propagate, then through tanh *)
    if l > 0 then begin
      Array.fill nd 0 nin 0.0;
      for o = 0 to nout - 1 do
        let d = get delta o in
        let row = o * nin in
        for i = 0 to nin - 1 do
          set nd i (get nd i +. (d *. get w (row + i)))
        done
      done;
      for i = 0 to nin - 1 do
        let ai = get a_in i in
        set delta i (get nd i *. (1.0 -. (ai *. ai)))
      done
    end
  done;
  loss

(** Apply accumulated gradients (scaled by 1/batch) with learning rate and
    momentum, then clear them. *)
let sgd_step ?(momentum = 0.0) ?(weight_decay = 0.0) t ~lr ~batch =
  let scale = 1.0 /. float_of_int (max 1 batch) in
  Array.iter
    (fun l ->
      let nin = l.nin in
      let w = l.w and gw = l.gw and mw = l.mw in
      let b = l.b and gb = l.gb and mb = l.mb in
      for o = 0 to l.nout - 1 do
        let row = o * nin in
        for i = row to row + nin - 1 do
          let g = (get gw i *. scale) +. (weight_decay *. get w i) in
          let m = (momentum *. get mw i) -. (lr *. g) in
          set mw i m;
          set w i (get w i +. m)
        done;
        let g = get gb o *. scale in
        let m = (momentum *. get mb o) -. (lr *. g) in
        set mb o m;
        set b o (get b o +. m)
      done)
    t.layers;
  zero_grads t

(** One mini-batch step; returns mean loss. *)
let train_batch ?(momentum = 0.0) t ~lr xs labels =
  let n = Array.length xs in
  assert (n = Array.length labels);
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. backward t xs.(k) ~label:labels.(k)
  done;
  sgd_step ~momentum t ~lr ~batch:n;
  !total /. float_of_int n

(** Classification accuracy over a dataset. *)
let accuracy t xs labels =
  let correct = ref 0 in
  Array.iteri (fun k x -> if predict t x = labels.(k) then incr correct) xs;
  float_of_int !correct /. float_of_int (Array.length xs)

(** Mean loss without updating. *)
let eval_loss t xs labels =
  let total = ref 0.0 in
  for k = 0 to Array.length xs - 1 do
    forward t xs.(k);
    total := !total -. log (clamp_prob t.probs.(labels.(k)))
  done;
  !total /. float_of_int (Array.length xs)

let copy_grads ~src ~dst =
  assert (src.sizes = dst.sizes);
  Array.iteri
    (fun li l ->
      let d = dst.layers.(li) in
      Array.blit l.gw 0 d.gw 0 (Array.length l.gw);
      Array.blit l.gb 0 d.gb 0 l.nout)
    src.layers

(** Deep copy of the parameters; gradients and momentum start at zero. *)
let clone t =
  of_layers t.sizes
    (Array.map
       (fun l ->
         let c = make_layer ~nin:l.nin ~nout:l.nout (Array.copy l.w) in
         Array.blit l.b 0 c.b 0 l.nout;
         c)
       t.layers)
