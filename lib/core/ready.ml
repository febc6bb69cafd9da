type order = {
  ranked : int array; (* rank -> job *)
  rank : int array; (* job -> rank *)
  succ_off : int array;
  succ_tgt : int array;
}

let order g ranked =
  let rank = Array.make (Array.length ranked) 0 in
  Array.iteri (fun r j -> rank.(j) <- r) ranked;
  let succ_off, succ_tgt = Suu_dag.Dag.succ_csr g in
  { ranked; rank; succ_off; succ_tgt }

let index_order g = order g (Array.init (Suu_dag.Dag.size g) Fun.id)

type t = {
  o : order;
  items : int array; (* the ready jobs, by rank, in [0 .. size - 1] *)
  inset : bool array;
  mutable size : int;
  mutable nrem : int; (* jobs still remaining, ready or not *)
  mutable fresh : bool;
}

let create o =
  let n = Array.length o.rank in
  { o; items = Array.make n 0; inset = Array.make n false; size = 0;
    nrem = 0; fresh = true }

let size t = t.size
let remaining t = t.nrem
let jobs t = t.items

(* First position whose job ranks at or after rank [r]. *)
let lower_bound t r =
  let rank = t.o.rank and items = t.items in
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if rank.(items.(mid)) < r then lo := mid + 1 else hi := mid
  done;
  !lo

let remove t j =
  let p = lower_bound t t.o.rank.(j) in
  Array.blit t.items (p + 1) t.items p (t.size - p - 1);
  t.size <- t.size - 1;
  t.nrem <- t.nrem - 1;
  t.inset.(j) <- false

let insert t j =
  let p = lower_bound t t.o.rank.(j) in
  Array.blit t.items p t.items (p + 1) (t.size - p);
  t.items.(p) <- j;
  t.size <- t.size + 1;
  t.inset.(j) <- true

let sync t ~prev ~remaining ~eligible =
  if t.fresh then begin
    t.fresh <- false;
    let ranked = t.o.ranked in
    for r = 0 to Array.length ranked - 1 do
      let j = ranked.(r) in
      if remaining.(j) then begin
        t.nrem <- t.nrem + 1;
        if eligible.(j) then begin
          t.items.(t.size) <- j;
          t.inset.(j) <- true;
          t.size <- t.size + 1
        end
      end
    done;
    true
  end
  else begin
    let { succ_off; succ_tgt; _ } = t.o in
    let changed = ref false in
    for i = 0 to Array.length prev - 1 do
      let j = prev.(i) in
      (* A ready job the row ran that left [remaining] completed; its
         successors are the only jobs that can have become eligible. *)
      if j >= 0 && t.inset.(j) && not remaining.(j) then begin
        changed := true;
        remove t j;
        for k = succ_off.(j) to succ_off.(j + 1) - 1 do
          let s = succ_tgt.(k) in
          if remaining.(s) && eligible.(s) && not t.inset.(s) then insert t s
        done
      end
    done;
    !changed
  end
