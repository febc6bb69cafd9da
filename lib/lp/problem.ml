type var = int
type sense = Le | Ge | Eq

type row = { terms : (var * float) array; sense : sense; rhs : float }

type t = {
  pname : string;
  mutable nvars : int;
  mutable obj : float array; (* grows; dense objective *)
  mutable rows : row list; (* reversed *)
  mutable nrows : int;
}

let create ?(name = "lp") () =
  { pname = name; nvars = 0; obj = Array.make 16 0.0; rows = []; nrows = 0 }

let name t = t.pname

let ensure_obj_capacity t n =
  let cap = Array.length t.obj in
  if n > cap then begin
    let fresh = Array.make (max n (2 * cap)) 0.0 in
    Array.blit t.obj 0 fresh 0 cap;
    t.obj <- fresh
  end

let add_var ?name:_ ?(obj = 0.0) t =
  let v = t.nvars in
  t.nvars <- v + 1;
  ensure_obj_capacity t t.nvars;
  t.obj.(v) <- obj;
  v

(* Merge duplicate variables in a term list.  The common case — terms
   already distinct — must stay cheap: constraint construction is on
   the plan-building hot path, so the hash-merge only runs when a sort
   actually reveals a duplicate. *)
let normalize_terms t terms =
  let arr = Array.of_list terms in
  let len = Array.length arr in
  Array.iter
    (fun (v, _) ->
      if v < 0 || v >= t.nvars then
        invalid_arg "Problem.add_constraint: variable out of range")
    arr;
  let sorted = ref true in
  for i = 1 to len - 1 do
    if fst arr.(i - 1) >= fst arr.(i) then sorted := false
  done;
  if !sorted then arr
  else begin
    Array.sort (fun (a, _) (b, _) -> compare a b) arr;
    let dup = ref false in
    for i = 1 to len - 1 do
      if fst arr.(i - 1) = fst arr.(i) then dup := true
    done;
    if not !dup then arr
    else begin
      (* In-place adjacent merge over the sorted copy. *)
      let out = ref 0 in
      for i = 1 to len - 1 do
        let v, c = arr.(i) in
        let v0, c0 = arr.(!out) in
        if v = v0 then arr.(!out) <- (v0, c0 +. c)
        else begin
          incr out;
          arr.(!out) <- (v, c)
        end
      done;
      Array.sub arr 0 (!out + 1)
    end
  end

let add_constraint ?name:_ t terms sense rhs =
  let terms = normalize_terms t terms in
  t.rows <- { terms; sense; rhs } :: t.rows;
  t.nrows <- t.nrows + 1

let num_vars t = t.nvars
let num_constraints t = t.nrows

let objective_value t x =
  let acc = ref 0.0 in
  for v = 0 to t.nvars - 1 do
    acc := !acc +. (t.obj.(v) *. x.(v))
  done;
  !acc

let row_value terms x =
  Array.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 terms

let constraint_violation t x =
  let worst = ref 0.0 in
  for v = 0 to t.nvars - 1 do
    if x.(v) < 0.0 then worst := Float.max !worst (-.x.(v))
  done;
  List.iter
    (fun { terms; sense; rhs } ->
      let lhs = row_value terms x in
      let viol =
        match sense with
        | Le -> lhs -. rhs
        | Ge -> rhs -. lhs
        | Eq -> Float.abs (lhs -. rhs)
      in
      if viol > !worst then worst := viol)
    t.rows;
  !worst

let iter_constraints t f =
  List.iter (fun { terms; sense; rhs } -> f terms sense rhs) (List.rev t.rows)

let objective t = Array.sub t.obj 0 t.nvars
