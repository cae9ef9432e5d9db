(* The gang-scheduling core shared by Svc.Cluster and Opt.Scheduler.
   Jobs are renumbered by submission sequence [s] (stable arrival order,
   which is also queue order); every per-job array below is indexed by
   [s]. *)

type policy =
  | Fcfs
  | Easy_backfill
  | Sjf_quota of float
  | Partition of float

type job = { arrival : float; width : int; estimate : float }

(* The wait queue: a segment tree over queue ranks whose internal nodes
   hold the minimum width and estimate below them (an empty leaf holds
   max_int and infinity), so "the first queued job in rank order that
   passes a test" is one root-to-leaf descent. *)
module Rankq = struct
  type t = { size : int; w : int array; e : float array }

  let create n =
    let size = ref 1 in
    while !size < n do
      size := 2 * !size
    done;
    {
      size = !size;
      w = Array.make (2 * !size) max_int;
      e = Array.make (2 * !size) infinity;
    }

  let set q r w e =
    let i = ref (q.size + r) in
    q.w.(!i) <- w;
    q.e.(!i) <- e;
    while !i > 1 do
      i := !i / 2;
      let l = 2 * !i in
      q.w.(!i) <- Int.min q.w.(l) q.w.(l + 1);
      let a = q.e.(l) and b = q.e.(l + 1) in
      q.e.(!i) <- (if a <= b then a else b)
    done

  let remove q r = set q r max_int infinity

  (* The first occupied rank >= [from] whose job is at most [cap] wide
     and also at most [spare] wide or done by [deadline] when started at
     [now]; -1 if none. The test is monotone in (width, estimate), so a
     subtree whose minima fail it holds no passing job. *)
  let rec go q ~from ~cap ~spare ~now ~deadline i lo hi =
    let w = q.w.(i) in
    if hi <= from || w > cap || (w > spare && not (now +. q.e.(i) <= deadline))
    then -1
    else if i >= q.size then i - q.size
    else
      let mid = (lo + hi) / 2 in
      let r = go q ~from ~cap ~spare ~now ~deadline (2 * i) lo mid in
      if r >= 0 then r
      else go q ~from ~cap ~spare ~now ~deadline ((2 * i) + 1) mid hi

  let first q ~from ~cap ~spare ~now ~deadline =
    go q ~from ~cap ~spare ~now ~deadline 1 0 q.size
end

(* arrivals and finishes this close to an event time are handled at it *)
let eps = 1e-12

let run ?(check = false) ?(on_submit = ignore) ?(on_event = fun _ _ _ -> ())
    ~on_start ~on_finish ~slots policy (jobs : job array) =
  Array.iter
    (fun j ->
      if j.width < 1 || j.width > slots then
        invalid_arg
          (Fmt.str "Gang.run: job width %d outside [1, %d]" j.width slots))
    jobs;
  let n = Array.length jobs in
  let index = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare jobs.(a).arrival jobs.(b).arrival)
    index;
  let arrival = Array.map (fun i -> jobs.(i).arrival) index in
  let width = Array.map (fun i -> jobs.(i).width) index in
  let estimate = Array.map (fun i -> jobs.(i).estimate) index in
  (* the estimate median over the stream splits short from long for the
     quota; jobs at or above an eighth of the pool are wide *)
  let median =
    if n = 0 then 1.0 else Icoe_util.Stats.median estimate
  in
  let long = Array.map (fun e -> e > median) estimate in
  let wide_cut = max 2 (slots / 8) in
  let wide = Array.map (fun w -> w >= wide_cut) width in
  (* queue rank: submission order, or (estimate, submission) under SJF.
     Sorting by estimate ranks every short job before every long one. *)
  let at_rank = Array.init n Fun.id in
  (match policy with
  | Sjf_quota _ ->
      Array.stable_sort (fun a b -> Float.compare estimate.(a) estimate.(b)) at_rank
  | Fcfs | Easy_backfill | Partition _ -> ());
  let rank = Array.make n 0 in
  Array.iteri (fun r s -> rank.(s) <- r) at_rank;
  (* one queue; the partition policy queues wide jobs on their own *)
  let q = Rankq.create n in
  let qw = match policy with Partition _ -> Rankq.create n | _ -> q in
  let queue_of s = if wide.(s) then qw else q in
  let at r = if r < 0 then -1 else at_rank.(r) in
  (* the first queued job from rank [from] at most [cap] wide (with
     [spare = cap] the deadline test never decides) *)
  let first_fit q ~from cap =
    at (Rankq.first q ~from ~cap ~spare:cap ~now:0.0 ~deadline:0.0)
  in
  let head q = first_fit q ~from:0 slots in
  let t = ref 0.0 and free = ref slots in
  let next = ref 0 in
  let depth = ref 0 and shorts_queued = ref 0 in
  let long_use = ref 0 and wide_use = ref 0 in
  (* running jobs, sorted by (finish, dispatch seq) descending: the next
     finisher is last. Each holds a slot, so at most [slots] run. *)
  let finish_at = Array.make n 0.0 and dseq = Array.make n 0 in
  let running = Array.make (min n slots) 0 and nrun = ref 0 in
  let dispatched = ref 0 in
  (* The earliest time at least [need] slots are free, walking the
     running jobs' finish times upward from [free] free slots (plus an
     extra job of width [xw] > 0 finishing at [xf]), and the slots free
     then. Jobs finishing at exactly the same time free their slots
     together. *)
  let shadow ~free ~need ~xf ~xw =
    if free >= need then (!t, free)
    else
      let cum = ref free and i = ref (!nrun - 1) and x = ref (xw > 0) in
      let shadow_t = ref infinity and found = ref false in
      while (not !found) && (!i >= 0 || !x) do
        let f =
          if !i >= 0 && ((not !x) || finish_at.(running.(!i)) <= xf) then
            finish_at.(running.(!i))
          else xf
        in
        while !i >= 0 && Float.equal finish_at.(running.(!i)) f do
          cum := !cum + width.(running.(!i));
          decr i
        done;
        if !x && Float.equal xf f then begin
          cum := !cum + xw;
          x := false
        end;
        if !cum >= need then begin
          shadow_t := f;
          found := true
        end
      done;
      (!shadow_t, !cum)
  in
  let fits s = width.(s) <= !free in
  let pick () =
    match policy with
    | Fcfs ->
        let h = head q in
        if h >= 0 && fits h then h else -1
    | Easy_backfill ->
        let h = head q in
        if h < 0 || fits h then h
        else
          let need = width.(h) and now = !t and fr = !free in
          let shadow_t, at_shadow = shadow ~free:fr ~need ~xf:0.0 ~xw:0 in
          (* slots left over at the shadow once the head has started: a
             job may run past the shadow only on these *)
          let spare = at_shadow - need in
          let c =
            at
              (Rankq.first q ~from:(rank.(h) + 1) ~cap:fr ~spare ~now
                 ~deadline:shadow_t)
          in
          (if check && c >= 0 then
             let shadow_t', _ =
               shadow ~free:(fr - width.(c)) ~need
                 ~xf:(now +. estimate.(c)) ~xw:width.(c)
             in
             if shadow_t' > shadow_t +. 1e-9 then
               invalid_arg
                 (Fmt.str
                    "Gang: backfilled job %d delays the head %d (shadow \
                     %.6f -> %.6f)"
                    index.(c) index.(h) shadow_t shadow_t'));
          c
    | Sjf_quota quota ->
        let fr = !free in
        let s = first_fit q ~from:0 fr in
        if s < 0 || (not long.(s)) || !shorts_queued = 0 || !long_use = 0
        then s
        else
          (* no short job fits while some wait, and every long job ranks
             after them: the quota binds from here on. For an integer x,
             float x <= c iff x <= floor c, and long_use + width never
             exceeds [slots]. *)
          let c = quota *. float_of_int slots in
          let most =
            if c >= float_of_int slots then slots
            else if c >= 0.0 then int_of_float c
            else -1
          in
          first_fit q ~from:rank.(s) (min fr (most - !long_use))
    | Partition frac ->
        let wide_slots = int_of_float (frac *. float_of_int slots) in
        let small_slots = slots - wide_slots in
        let fits_side s =
          fits s
          &&
          if wide.(s) then !wide_use + width.(s) <= wide_slots
          else slots - !free - !wide_use + width.(s) <= small_slots
        in
        (* FCFS within each side: try the earlier of the two heads first *)
        let a = head q and b = head qw in
        let a, b = if b >= 0 && (a < 0 || b < a) then (b, a) else (a, b) in
        if a >= 0 && fits_side a then a
        else if b >= 0 && fits_side b then b
        else -1
  in
  let dispatch s =
    let w = width.(s) in
    Rankq.remove (queue_of s) rank.(s);
    decr depth;
    if not long.(s) then decr shorts_queued;
    free := !free - w;
    if long.(s) then long_use := !long_use + w;
    if wide.(s) then wide_use := !wide_use + w;
    let f = !t +. on_start index.(s) !t in
    finish_at.(s) <- f;
    dseq.(s) <- !dispatched;
    incr dispatched;
    (* it has the largest dispatch seq: insert it ahead of every job
       finishing at or before [f] *)
    let lo = ref 0 and hi = ref !nrun in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if finish_at.(running.(mid)) > f then lo := mid + 1 else hi := mid
    done;
    Array.blit running !lo running (!lo + 1) (!nrun - !lo);
    running.(!lo) <- s;
    incr nrun
  in
  let start_all () =
    let s = ref (pick ()) in
    while !s >= 0 do
      dispatch !s;
      s := pick ()
    done
  in
  let finish_due () =
    let cut = !t +. eps in
    let k = ref !nrun in
    while !k > 0 && finish_at.(running.(!k - 1)) <= cut do
      decr k
    done;
    (* report the finishers most recently dispatched first *)
    for i = !k + 1 to !nrun - 1 do
      let s = running.(i) in
      let j = ref (i - 1) in
      while !j >= !k && dseq.(running.(!j)) < dseq.(s) do
        running.(!j + 1) <- running.(!j);
        decr j
      done;
      running.(!j + 1) <- s
    done;
    let hi = !nrun in
    nrun := !k;
    for i = !k to hi - 1 do
      let s = running.(i) in
      let w = width.(s) in
      free := !free + w;
      if long.(s) then long_use := !long_use - w;
      if wide.(s) then wide_use := !wide_use - w;
      on_finish index.(s) !t
    done
  in
  let admit () =
    let cut = !t +. eps in
    while !next < n && arrival.(!next) <= cut do
      let s = !next in
      incr next;
      on_submit index.(s);
      Rankq.set (queue_of s) rank.(s) width.(s) estimate.(s);
      incr depth;
      if not long.(s) then incr shorts_queued
    done
  in
  start_all ();
  on_event !t !depth !free;
  while !next < n || !nrun > 0 do
    (t :=
       let f = if !nrun > 0 then finish_at.(running.(!nrun - 1)) else infinity in
       if !next < n && arrival.(!next) <= f then arrival.(!next) else f);
    finish_due ();
    admit ();
    start_all ();
    on_event !t !depth !free
  done;
  !t
